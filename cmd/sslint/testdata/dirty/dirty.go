// Package dirty is a driver-test fixture with exactly two findings: a hotpath
// allocation and an unused allow. It is never part of the build.
package dirty

//sslint:hotpath
func leak() *int {
	return new(int)
}

//sslint:allow determinism — fixture: deliberately unused
func quiet() {}

// Package diagnose renders human-readable blocked-chain reports when core's
// progress watchdog detects that no flit has moved for a full epoch, or its
// drain check finds flits never retired. The report says what is occupied
// and why it is stuck: starting from each backed-up terminal it walks the
// head-of-line dependency chain — interface queue → router input VC → the
// output VC or downstream credit the head flit waits on → the input VC
// holding that resource — until the chain reaches a transient wait
// (progress imminent, so the stall is elsewhere), leaves the visible network
// state (flits or credits in transit on a channel), or closes on itself,
// which is the signature of a credit-dependency deadlock.
//
// The walk is read-only over accessors every router architecture exposes
// (router.HOL, router.OutputChannel, the interface queue inspectors), so a
// report can be taken from any live simulation without perturbing it.
package diagnose

import (
	"fmt"
	"strings"

	"supersim/internal/network"
	"supersim/internal/router"
	"supersim/internal/types"
)

const (
	// maxDepth bounds one chain's length; a chain longer than any credit
	// loop in a sane network means the walk is cycling through fresh state,
	// so truncate rather than flood the report.
	maxDepth = 64
	// maxChains bounds the report size on large networks where hundreds of
	// terminals back up behind the same hotspot.
	maxChains = 16
)

// Diagnostician walks head-of-line dependency chains over a built network.
type Diagnostician struct {
	net network.Network
}

// New creates a diagnostician for the network. core's run loop prints its
// Report when the watchdog or the drain check fires.
func New(net network.Network) *Diagnostician { return &Diagnostician{net: net} }

type visitKey struct{ router, port, vc int }

// Report renders the blocked-chain report: one chain per backed-up terminal,
// then chains starting at any still-unvisited occupied router input VC
// (stalls that are wholly router-resident), capped at maxChains.
func (d *Diagnostician) Report() string {
	var b strings.Builder
	b.WriteString("stall diagnosis: head-of-line dependency chains\n")
	visited := make(map[visitKey]bool)
	chains := 0
	for t := 0; t < d.net.NumTerminals() && chains < maxChains; t++ {
		ifc := d.net.Interface(t)
		if ifc.QueueDepth() == 0 {
			continue
		}
		chains++
		fmt.Fprintf(&b, "terminal %d: %d packets queued", t, ifc.QueueDepth())
		if pkt := ifc.HeadPacket(); pkt != nil {
			fmt.Fprintf(&b, ", head %v", pkt)
		}
		fmt.Fprintf(&b, ", injection credits %v\n", ifc.InjectionCredits())
		sink, port := ifc.OutputChannel().Sink()
		d.walk(&b, visited, sink, port, -1)
	}
	for i := 0; i < d.net.NumRouters() && chains < maxChains; i++ {
		r := d.net.Router(i)
		for port := 0; port < r.Radix() && chains < maxChains; port++ {
			for vc := 0; vc < r.NumVCs() && chains < maxChains; vc++ {
				if visited[visitKey{r.ID(), port, vc}] {
					continue
				}
				if r.HOL(port, vc).Phase == router.HOLEmpty {
					continue
				}
				chains++
				b.WriteString("router-resident chain:\n")
				d.walk(&b, visited, r, port, vc)
			}
		}
	}
	if chains == 0 {
		b.WriteString("no occupied queues found — flits or credits in transit on channels\n")
	} else if chains == maxChains {
		fmt.Fprintf(&b, "(report capped at %d chains)\n", maxChains)
	}
	return b.String()
}

// walk follows one dependency chain. vc < 0 means the hop was reached over a
// channel whose arriving VC is unknown (a terminal's injection link); the
// walk then continues at the port's most occupied input VC.
func (d *Diagnostician) walk(b *strings.Builder, visited map[visitKey]bool, sink types.FlitSink, port, vc int) {
	for depth := 0; depth < maxDepth; depth++ {
		r, ok := sink.(router.Router)
		if !ok {
			b.WriteString("  -> ejection interface: flits or credits in transit\n")
			return
		}
		if vc < 0 {
			best, bestOcc := -1, 0
			for v := 0; v < r.NumVCs(); v++ {
				if occ := r.HOL(port, v).Occupancy; occ > bestOcc {
					best, bestOcc = v, occ
				}
			}
			if best < 0 {
				fmt.Fprintf(b, "  -> router %d port %d: input buffers empty — flits or credits in transit\n", r.ID(), port)
				return
			}
			vc = best
		}
		key := visitKey{r.ID(), port, vc}
		if visited[key] {
			fmt.Fprintf(b, "  !! chain closes on router %d in(port %d, vc %d) — credit-dependency cycle (deadlock)\n",
				r.ID(), port, vc)
			return
		}
		visited[key] = true
		st := r.HOL(port, vc)
		switch st.Phase {
		case router.HOLEmpty:
			fmt.Fprintf(b, "  -> router %d in(port %d, vc %d): empty — flits or credits in transit\n",
				r.ID(), port, vc)
			return
		case router.HOLRouting:
			fmt.Fprintf(b, "  -> router %d in(port %d, vc %d): occ %d, head %v, route computation in flight\n",
				r.ID(), port, vc, st.Occupancy, st.Flit)
			return
		case router.HOLAwaitingVC:
			fmt.Fprintf(b, "  -> router %d in(port %d, vc %d): occ %d, head %v, awaiting VC on out port %d (want vcs %v)",
				r.ID(), port, vc, st.Occupancy, st.Flit, st.WantPort, st.WantVCs)
			if st.HolderPort < 0 {
				b.WriteString(" — a wanted VC is free, grant imminent\n")
				return
			}
			fmt.Fprintf(b, ", held by in(port %d, vc %d)\n", st.HolderPort, st.HolderVC)
			port, vc = st.HolderPort, st.HolderVC
			continue // same router, the holder's own dependency
		case router.HOLAllocated:
			fmt.Fprintf(b, "  -> router %d in(port %d, vc %d): occ %d, head %v, allocated out(port %d, vc %d), credits %d/%d",
				r.ID(), port, vc, st.Occupancy, st.Flit, st.OutPort, st.OutVC, st.Credits, st.CreditCap)
			if st.OutDepth >= 0 {
				fmt.Fprintf(b, ", outq %d", st.OutQueued)
				if st.OutDepth > 0 {
					fmt.Fprintf(b, "/%d", st.OutDepth)
				}
			}
			if st.Credits > 0 {
				b.WriteString(" — credits available, progress imminent\n")
				return
			}
			b.WriteString("\n")
			ch := r.OutputChannel(st.OutPort)
			if ch == nil {
				b.WriteString("  -> output port unconnected\n")
				return
			}
			sink, port = ch.Sink()
			vc = st.OutVC // credits owed by the downstream buffer on this VC
			continue
		default:
			fmt.Fprintf(b, "  -> router %d in(port %d, vc %d): unknown phase %q\n", r.ID(), port, vc, st.Phase)
			return
		}
	}
	fmt.Fprintf(b, "  ... chain truncated at %d hops\n", maxDepth)
}

package router

import (
	"math/rand/v2"

	"supersim/internal/config"
	"supersim/internal/sim"
)

// FlowControl selects the crossbar scheduler's resource allocation technique
// (case study C).
type FlowControl int

const (
	// FlitBuffer (FB) schedules the crossbar flit by flit: packets in
	// arbitration for the same output interleave, each taking a fair share
	// of the bandwidth.
	FlitBuffer FlowControl = iota
	// PacketBuffer (PB) schedules packet by packet: a packet only wins
	// arbitration when there is enough downstream space for the entire
	// packet, and the decision is locked until the tail flit enters the
	// crossbar, so no credit stalls occur mid-packet.
	PacketBuffer
	// WinnerTakeAll (WTA) is the hybrid: flit-by-flit scheduling with the
	// decision locked once made, but without the full-packet credit check.
	// If the streaming packet encounters a credit stall the lock is released
	// and other packets with available credits take over.
	WinnerTakeAll
)

// ParseFlowControl maps a settings string to a FlowControl mode.
func ParseFlowControl(s string) FlowControl {
	switch s {
	case "flit_buffer":
		return FlitBuffer
	case "packet_buffer":
		return PacketBuffer
	case "winner_take_all":
		return WinnerTakeAll
	default:
		panic("router: unknown flow control " + s)
	}
}

// schedPolicy selects the arbitration policy used among contenders.
type schedPolicy int

const (
	polRoundRobin schedPolicy = iota
	polAgeBased
	polRandom
)

func parsePolicy(s string) schedPolicy {
	switch s {
	case "round_robin":
		return polRoundRobin
	case "age_based":
		return polAgeBased
	case "random":
		return polRandom
	default:
		panic("router: unknown crossbar scheduler policy " + s)
	}
}

// parseVCPolicy reads the VC scheduler policy: round_robin (default) or
// age_based (oldest packet first, the parking lot fairness fix).
func parseVCPolicy(cfg *config.Settings) bool {
	switch p := cfg.StringOr("vc_policy", "round_robin"); p {
	case "round_robin":
		return false
	case "age_based":
		return true
	default:
		panic("router: unknown vc_policy " + p)
	}
}

// xbarSched is the per-output-port crossbar scheduler. Contenders are input
// VC client indices that have been allocated an output VC on this port; the
// scheduler picks at most one winner per core cycle, honoring the flow
// control technique's locking rules. Eligibility (flit present, credit
// thresholds, channel availability) is evaluated by the owning router via
// callbacks because it owns the credit state.
type xbarSched struct {
	mode       FlowControl
	policy     schedPolicy
	rng        *rand.Rand
	contenders []int
	lastGrant  int // client id of last grant, for round robin rotation
	locked     int // client id holding the lock, -1 when unlocked
}

func newXbarSched(mode FlowControl, policy schedPolicy, rng *rand.Rand) *xbarSched {
	return &xbarSched{mode: mode, policy: policy, rng: rng, lastGrant: -1, locked: -1}
}

func (x *xbarSched) addContender(client int) {
	x.contenders = append(x.contenders, client)
}

func (x *xbarSched) removeContender(client int) {
	for i, c := range x.contenders {
		if c == client {
			x.contenders = append(x.contenders[:i], x.contenders[i+1:]...)
			return
		}
	}
	panic("router: removing unknown crossbar contender")
}

func (x *xbarSched) active() bool { return len(x.contenders) > 0 }

// grant returns the winning client for this cycle, or -1. eligible reports
// whether a client can actually send a flit right now; age returns the
// arbitration metadata (packet age; smaller wins) for age-based policy.
func (x *xbarSched) grant(eligible func(int) bool, age func(int) sim.Tick) int {
	if x.locked != -1 {
		if eligible(x.locked) {
			return x.locked
		}
		switch x.mode {
		case PacketBuffer:
			// Decision stays locked until the tail enters the crossbar; a
			// stalled winner (waiting for body flits) blocks the output.
			return -1
		case WinnerTakeAll:
			// A stall releases the lock; others with credits take over.
			x.locked = -1
		}
	}
	switch x.policy {
	case polAgeBased:
		best, bestAge := -1, sim.Tick(0)
		for _, c := range x.contenders {
			if !eligible(c) {
				continue
			}
			a := age(c)
			if best == -1 || a < bestAge {
				best, bestAge = c, a
			}
		}
		return best
	case polRandom:
		n, pick := 0, -1
		for _, c := range x.contenders {
			if !eligible(c) {
				continue
			}
			n++
			if x.rng.IntN(n) == 0 {
				pick = c
			}
		}
		return pick
	default: // round robin by client index relative to the last grant
		best, bestKey := -1, 0
		for _, c := range x.contenders {
			if !eligible(c) {
				continue
			}
			key := c - x.lastGrant
			if key <= 0 {
				key += 1 << 30
			}
			if best == -1 || key < bestKey {
				best, bestKey = c, key
			}
		}
		return best
	}
}

// onSent records that a flit of the winning client entered the crossbar and
// applies the locking rules. head/tail flag the flit's role in its packet.
func (x *xbarSched) onSent(client int, head, tail bool) {
	x.lastGrant = client
	if x.mode != FlitBuffer && head {
		x.locked = client
	}
	if tail {
		if x.locked == client {
			x.locked = -1
		}
		x.removeContender(client)
	}
}

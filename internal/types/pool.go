package types

import "sync/atomic"

// poolKey buckets recycled messages by shape: segmentation depends on both
// the flit count and the packet size cap, so both are part of the key. The
// cap is the one the shape shows (Message.maxPkt): min(cap, flit count).
type poolKey struct {
	totalFlits    int
	maxPacketSize int
}

// PoolObserver is notified of message lifecycle transitions through a pool.
// The invariant-verification subsystem implements it to detect aliasing —
// a message released or handed out while its flits are still in the network.
type PoolObserver interface {
	// MessageObtained fires after a message is drawn from the pool (recycled
	// or freshly allocated) and reset.
	MessageObtained(m *Message)
	// MessageReleased fires when a message's blocks return to the free list.
	MessageReleased(m *Message)
}

// Pool recycles retired message/packet/flit blocks, bucketed by message
// shape. It is single-threaded by design — one Pool belongs to one Workload
// driven by one Simulator, mirroring the simulator's event free list — so it
// takes no locks. See the package documentation for the lifecycle rules.
//
// The zero Pool is not usable; call NewPool.
type Pool struct {
	free map[poolKey][]*Message
	obs  PoolObserver
	// id names the pool in its messages (Message.pool), four bytes where a
	// pointer would take eight; 0 means unpooled.
	id uint32

	gets uint64 // NewMessage calls
	// hits counts NewMessage calls served from the free list since this
	// process built the pool. Like the free list it is not simulation state:
	// a restored run starts it at zero.
	hits     uint64
	releases uint64 // messages returned
}

// poolIDs numbers pools process-wide from 1 (0 is unpooled). Sweeps build
// pools from several goroutines, hence the atomic.
var poolIDs atomic.Uint32

// NewPool creates an empty message pool.
func NewPool() *Pool {
	return &Pool{free: map[poolKey][]*Message{}, id: poolIDs.Add(1)}
}

// SetObserver registers a lifecycle observer (nil to remove). Observation is
// read-only; the observer must not retain or release messages.
func (p *Pool) SetObserver(o PoolObserver) { p.obs = o }

// PoolStats is a snapshot of a pool's recycling counters.
type PoolStats struct {
	Gets     uint64 // messages requested
	Hits     uint64 // requests served without allocating, since process start
	Releases uint64 // messages returned to the pool
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Gets: p.gets, Hits: p.hits, Releases: p.releases}
}

// NewMessage returns a message of totalFlits flits segmented into packets of
// at most maxPacketSize flits, recycling a retired message of the same shape
// when one is available. The returned message is field-for-field identical to
// one built by the package-level NewMessage.
func (p *Pool) NewMessage(id uint64, app, src, dst int, totalFlits, maxPacketSize int) *Message {
	validateShape(id, app, src, dst, totalFlits, maxPacketSize)
	p.gets++
	k := poolKey{totalFlits, min(maxPacketSize, totalFlits)}
	if list := p.free[k]; len(list) > 0 {
		m := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[k] = list[:len(list)-1]
		p.hits++
		m.reset(id, app, src, dst)
		if p.obs != nil {
			p.obs.MessageObtained(m)
		}
		return m
	}
	m := &Message{pool: p.id}
	m.alloc(totalFlits, maxPacketSize)
	m.reset(id, app, src, dst)
	if p.obs != nil {
		p.obs.MessageObtained(m)
	}
	return m
}

// Release returns a retired message's blocks to the pool. It is legal only
// after full delivery, at most once per NewMessage; a double release panics
// (it would alias one block between two live messages). Messages owned by a
// different pool, unpooled messages and nil are ignored, so callers can
// release unconditionally at the retirement point.
func (p *Pool) Release(m *Message) {
	if m == nil || m.pool != p.id {
		return
	}
	if m.released {
		panic("types: message released twice")
	}
	m.released = true
	p.releases++
	if p.obs != nil {
		p.obs.MessageReleased(m)
	}
	k := poolKey{m.TotalFlits(), m.maxPkt()}
	p.free[k] = append(p.free[k], m)
}

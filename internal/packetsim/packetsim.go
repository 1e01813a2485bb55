// Package packetsim is a discrete-event packet-level network simulator in
// the spirit of htsim, the MPTCP simulator the paper uses for §5. It
// complements internal/flowsim: flowsim computes the max-min fluid
// equilibrium directly, while packetsim actually runs AIMD congestion
// windows over store-and-forward links with drop-tail queues, providing an
// independent check that the fluid model lands where real transport
// dynamics land.
//
// The model, deliberately compact but mechanically faithful:
//
//   - Every directed switch-switch link and every server NIC is a link
//     with a fixed packet service time (1/line-rate) and a bounded FIFO
//     queue; packets are dropped at the tail when the queue is full.
//   - A flow is one or more subflows, each source-routed along a fixed
//     switch path. Subflows run TCP NewReno-style AIMD: slow start to
//     ssthresh, then +1 MSS per RTT; a drop detected via duplicate-ACK
//     (modeled as a loss event when a packet of that subflow is dropped)
//     halves the window.
//   - MPTCP couples its subflows with LIA-flavored increase: each ACK
//     grows the subflow by 1/wtotal instead of 1/w, so the aggregate is
//     roughly as aggressive as one TCP, while drops halve only the
//     affected subflow — traffic shifts away from congested paths.
//   - ACKs return after the forward one-way delay without consuming
//     bandwidth (standard teaching-simulator simplification).
//
// Time is in packet service units of the line rate: one unit = the time a
// NIC needs to serialize one MSS. Goodput per flow is measured over the
// second half of the run (the first half warms up).
//
// The event queue is a hand-inlined 4-ary heap of indices into a flat
// event arena with a free-list — no container/heap boxing, no allocation
// per event. Simultaneous events are ordered by injection sequence
// (FIFO), making the event order — and so every result — a fully
// specified function of the inputs. Like flowsim, the compiled Sim form
// reuses all scratch across calls and runs the event loop at zero
// steady-state allocations (TestPacketZeroAllocs pins it).
package packetsim

import (
	"jellyfish/internal/resarena"
	"jellyfish/internal/rng"
	"jellyfish/internal/routing"
	"jellyfish/internal/traffic"
)

// Config tunes the simulator. Zero values select defaults.
type Config struct {
	// QueuePackets is the per-link FIFO capacity (default 64).
	QueuePackets int
	// Horizon is the simulated duration in packet service times
	// (default 4000).
	Horizon float64
	// PropDelay is the per-hop propagation delay in service times
	// (default 0.1).
	PropDelay float64
	// Subflows per flow for MPTCP (default 8).
	Subflows int
	// Coupled selects MPTCP coupling (LIA-style increase); false gives
	// independent NewReno subflows.
	Coupled bool
}

func (c Config) withDefaults() Config {
	if c.QueuePackets == 0 {
		c.QueuePackets = 64
	}
	if c.Horizon == 0 {
		c.Horizon = 4000
	}
	if c.PropDelay == 0 {
		c.PropDelay = 0.1
	}
	if c.Subflows == 0 {
		c.Subflows = 8
	}
	return c
}

// Result reports measured per-flow goodput in NIC-rate units.
type Result struct {
	FlowGoodput []float64
}

// Mean returns the average goodput across flows.
func (r Result) Mean() float64 {
	if len(r.FlowGoodput) == 0 {
		return 0
	}
	var s float64
	for _, x := range r.FlowGoodput {
		s += x
	}
	return s / float64(len(r.FlowGoodput))
}

// subflow is one AIMD congestion-window instance pinned to a path. Its
// links live in the Sim's flat subLinkIDs pool at [linkStart, linkEnd).
type subflow struct {
	flow               int32
	linkStart, linkEnd int32
	inFlight           int32
	delivered          int32
	lossPending        bool
	cwnd               float64
	ssthresh           float64
}

type evKind uint8

const (
	evArrive evKind = iota // packet reaches head of link l, begins service
	evAck                  // ACK returns to the sender
)

// event is one arena slot. seq breaks time ties FIFO, fully specifying
// the simulation order.
type event struct {
	t    float64
	seq  uint64
	sub  int32
	hop  int32
	kind evKind
	drop bool
}

// A Sim is a compiled, reusable packet simulator instance; see the
// package comment. Not safe for concurrent use — one per worker
// goroutine. Reuse across different topologies and tables is safe and
// bit-identical to a fresh instance (link identity is keyed by server id
// and directed switch pair, with per-call busy-state invalidated by
// generation stamp).
type Sim struct {
	arena resarena.Arena

	// busyUntil per link arena id; valid where gen == curGen. With
	// unit-size packets the queue length at time t is exactly
	// busyUntil − t service times, so no explicit queue is needed.
	busy   []float64
	gen    []uint32
	curGen uint32

	subs         []subflow
	subLinkIDs   []int32
	flowSubStart []int32 // subflows of flow fi: [start[fi], start[fi+1])

	events []event
	free   []int32
	heap   []heapEntry
	seq    uint64

	cfg    Config
	warmup float64

	rates []float64
	local []bool
}

// NewSim returns a Sim pre-sized for the given switch and server counts
// (both lower bounds; the arena grows on demand).
func NewSim(switches, servers int) *Sim {
	s := &Sim{}
	s.arena.EnsureSwitches(switches)
	s.arena.EnsureServers(servers)
	return s
}

// Simulate runs the packet simulation for the given flows over the route
// table. proto semantics match flowsim: TCP1 = one subflow on a hashed
// route, TCP8 = eight independent subflows on hashed routes, MPTCP8 =
// eight coupled subflows on distinct routes.
//
// The returned Result aliases the instance's goodput buffer: it is valid
// until the next Simulate call on this Sim.
//
//jellyvet:hotpath
func (s *Sim) Simulate(flows []traffic.Flow, table *routing.Table, cfgIn Config, src *rng.Source) Result {
	s.cfg = cfgIn.withDefaults()
	s.warmup = s.cfg.Horizon / 2
	s.curGen++
	if s.curGen == 0 {
		clear(s.gen)
		s.curGen = 1
	}
	s.rates = resarena.Grow(s.rates, len(flows))
	s.local = resarena.Grow(s.local, len(flows))
	for i := range s.rates {
		s.rates[i] = 0
	}
	for i := range s.local {
		s.local[i] = false
	}
	s.subs = s.subs[:0]
	s.subLinkIDs = s.subLinkIDs[:0]
	s.flowSubStart = resarena.Grow(s.flowSubStart, len(flows)+1)
	s.flowSubStart[0] = 0

	for fi := range flows {
		f := &flows[fi]
		if f.SrcSwitch == f.DstSwitch {
			s.local[fi] = true
			s.rates[fi] = 1
			s.flowSubStart[fi+1] = s.flowSubStart[fi]
			continue
		}
		paths := table.PathsFor(f.SrcSwitch, f.DstSwitch)
		if len(paths) == 0 {
			s.flowSubStart[fi+1] = s.flowSubStart[fi]
			continue
		}
		for k := 0; k < s.cfg.Subflows; k++ {
			var p []int
			if s.cfg.Coupled {
				p = paths[k%len(paths)]
			} else {
				p = paths[src.Intn(len(paths))]
			}
			start := int32(len(s.subLinkIDs))
			s.subLinkIDs = append(s.subLinkIDs, s.touch(s.arena.SrcNIC(f.SrcServer))) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
			for i := 0; i+1 < len(p); i++ {
				s.subLinkIDs = append(s.subLinkIDs, s.touch(s.arena.Link(p[i], p[i+1]))) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
			}
			s.subLinkIDs = append(s.subLinkIDs, s.touch(s.arena.DstNIC(f.DstServer))) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
			s.subs = append(s.subs, subflow{                                          //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
				flow: int32(fi), linkStart: start, linkEnd: int32(len(s.subLinkIDs)),
				cwnd: 2, ssthresh: 32,
			})
		}
		s.flowSubStart[fi+1] = int32(len(s.subs))
	}

	s.events = s.events[:0]
	s.free = s.free[:0]
	s.heap = s.heap[:0]
	s.seq = 0

	for si := range s.subs {
		s.inject(0, int32(si))
	}

	for len(s.heap) > 0 {
		ei := s.pop()
		ev := s.events[ei]
		s.free = append(s.free, ei) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
		if ev.t > s.cfg.Horizon {
			break
		}
		sf := &s.subs[ev.sub]
		switch ev.kind {
		case evArrive:
			s.serve(ev.t, ev.sub, ev.hop)
		case evAck:
			sf.inFlight--
			if ev.drop {
				// Loss event: multiplicative decrease (once per window).
				if !sf.lossPending {
					sf.ssthresh = sf.cwnd / 2
					if sf.ssthresh < 1 {
						sf.ssthresh = 1
					}
					sf.cwnd = sf.ssthresh
					sf.lossPending = true
				}
			} else {
				sf.lossPending = false
				if ev.t > s.warmup {
					sf.delivered++
				}
				if sf.cwnd < sf.ssthresh {
					sf.cwnd++ // slow start
				} else if s.cfg.Coupled {
					sf.cwnd += s.coupledIncrease(sf.flow)
				} else {
					sf.cwnd += 1 / sf.cwnd // congestion avoidance
				}
			}
			s.inject(ev.t, ev.sub)
		}
	}

	window := s.cfg.Horizon - s.warmup
	for si := range s.subs {
		s.rates[s.subs[si].flow] += float64(s.subs[si].delivered) / window
	}
	for fi := range s.rates {
		if !s.local[fi] && s.rates[fi] > 1 {
			s.rates[fi] = 1
		}
	}
	return Result{FlowGoodput: s.rates}
}

// Simulate is the one-shot form: it builds a throwaway Sim. Use a Sim for
// repeated simulation.
func Simulate(flows []traffic.Flow, table *routing.Table, cfgIn Config, src *rng.Source) Result {
	return new(Sim).Simulate(flows, table, cfgIn, src)
}

// touch grows the busy-state tables to cover link arena id r and resets
// its state on first touch of the current call.
//
//jellyvet:hotpath
func (s *Sim) touch(r int32) int32 {
	for int(r) >= len(s.gen) {
		s.gen = append(s.gen, 0)   //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
		s.busy = append(s.busy, 0) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
	}
	if s.gen[r] != s.curGen {
		s.gen[r] = s.curGen
		s.busy[r] = 0
	}
	return r
}

// inject sends packets for subflow si until its window is filled.
//
//jellyvet:hotpath
func (s *Sim) inject(now float64, si int32) {
	sf := &s.subs[si]
	for sf.inFlight < int32(sf.cwnd) {
		sf.inFlight++
		s.push(event{t: now, kind: evArrive, sub: si, hop: 0})
	}
}

// serve enqueues the packet at the subflow's hop-th link (or drops it at
// the tail).
//
//jellyvet:hotpath
func (s *Sim) serve(now float64, si, hop int32) {
	sf := &s.subs[si]
	l := s.subLinkIDs[sf.linkStart+hop]
	backlog := s.busy[l] - now
	if backlog < 0 {
		backlog = 0
	}
	if backlog >= float64(s.cfg.QueuePackets) {
		// Drop-tail: the sender learns via duplicate ACKs after the
		// one-way delay accumulated so far.
		s.push(event{t: now + s.cfg.PropDelay*float64(hop+1), kind: evAck, sub: si, drop: true})
		return
	}
	done := now + backlog + 1 // queueing + one service time
	s.busy[l] = done
	if sf.linkStart+hop+1 < sf.linkEnd {
		s.push(event{t: done + s.cfg.PropDelay, kind: evArrive, sub: si, hop: hop + 1})
	} else {
		s.push(event{t: done + s.cfg.PropDelay, kind: evAck, sub: si})
	}
}

//jellyvet:hotpath
func (s *Sim) coupledIncrease(fi int32) float64 {
	var wtot float64
	for si := s.flowSubStart[fi]; si < s.flowSubStart[fi+1]; si++ {
		wtot += s.subs[si].cwnd
	}
	if wtot < 1 {
		wtot = 1
	}
	return 1 / wtot
}

// ---- event arena + 4-ary index heap ----

// heapEntry carries the ordering key (time, injection sequence) alongside
// the arena index, so heap comparisons never chase pointers into the
// arena — sifts stay within the contiguous heap array.
type heapEntry struct {
	t   float64
	seq uint64
	ei  int32
}

func (a heapEntry) less(b heapEntry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// push stores ev in a free arena slot (or a new one) and sifts its entry
// up the heap.
//
//jellyvet:hotpath
func (s *Sim) push(ev event) {
	ev.seq = s.seq
	s.seq++
	var ei int32
	if n := len(s.free); n > 0 {
		ei = s.free[n-1]
		s.free = s.free[:n-1]
		s.events[ei] = ev
	} else {
		ei = int32(len(s.events))
		s.events = append(s.events, ev) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
	}
	e := heapEntry{t: ev.t, seq: ev.seq, ei: ei}
	h := s.heap
	i := len(h)
	h = append(h, e) //jellyvet:allow hotpath -- grows Sim-owned arena reused across calls; steady state is zero-alloc (TestPacketZeroAllocs)
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.heap = h
}

// pop removes and returns the arena index of the earliest event. The
// caller reads the slot and returns it to the free-list.
//
//jellyvet:hotpath
func (s *Sim) pop() int32 {
	h := s.heap
	top := h[0].ei
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= len(h) {
				break
			}
			best := first
			end := first + 4
			if end > len(h) {
				end = len(h)
			}
			for c := first + 1; c < end; c++ {
				if h[c].less(h[best]) {
					best = c
				}
			}
			if !h[best].less(last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	s.heap = h
	return top
}

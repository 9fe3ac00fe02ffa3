// Package switchnet models the SP's high-performance multistage
// packet-switched switch.
//
// The model keeps the properties the paper's protocols depend on:
//
//   - four routes between every ordered node pair, selected round-robin, so
//     consecutive packets of one message travel different routes;
//   - per-route occupancy (congestion) plus a per-route latency skew, so
//     packets genuinely arrive out of order and receivers must resequence or
//     reassemble by offset;
//   - finite bandwidth: each packet occupies its route for its serialization
//     time;
//   - scripted fault injection (internal/faults): time-windowed drop,
//     duplicate and corrupt bursts, plus per-route link outages with
//     failover onto the surviving routes.
//
// The fabric itself is unreliable and unordered; reliability is the job of
// the Pipes layer (native stack) and of LAPI's transport (new stack),
// exactly as on the real machine.
package switchnet

import (
	"fmt"
	"hash/crc32"

	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Packet is one switch packet. Payload carries the upper-layer protocol
// header and user data as real bytes; Wire is the total size serialized on
// the wire (payload plus link framing).
type Packet struct {
	Src, Dst int
	Payload  []byte
	Wire     int
	// Route is filled in by the fabric for observability.
	Route int
	// CRC is the payload checksum the fabric stamps at injection when the
	// fault plan may corrupt packets; Checked marks it valid. The HAL
	// verifies it before dispatch so in-transit corruption is detected,
	// never silently delivered. Both live only in the simulator's packet
	// record — the real link CRC is part of LinkFrameBytes, so modelling
	// it adds no wire bytes and moves no virtual-time result.
	CRC     uint32
	Checked bool
	// seq is the per-ordered-pair injection sequence number, used for
	// reorder stats and packet trace IDs.
	seq uint64
}

// Seq exposes the injection sequence number for observability (0 before
// the packet enters the fabric).
func (pk *Packet) Seq() uint64 { return pk.seq }

func (pk *Packet) String() string {
	return fmt.Sprintf("pkt{%d->%d route=%d wire=%dB}", pk.Src, pk.Dst, pk.Route, pk.Wire)
}

// Stats are cumulative fabric counters.
type Stats struct {
	Injected   uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	// Reordered counts deliveries whose injection sequence number is lower
	// than an earlier delivery for the same ordered pair.
	Reordered uint64
	BytesWire uint64
	// Corrupted counts packets whose payload the fault plan flipped a
	// byte of (they still transit; the HAL CRC check drops them).
	Corrupted uint64
	// RouteMasked counts failovers: a packet's round-robin route was down
	// and the fabric advanced to the next one.
	RouteMasked uint64
	// NoRouteDrops counts packets dropped because every route of their
	// pair was down (included in Dropped).
	NoRouteDrops uint64
}

type route struct {
	freeAt sim.Time
	skew   sim.Time
}

// sendPair is the sender-side state of an ordered pair: its routes'
// occupancy, the round-robin cursor, and the injection sequence counter.
type sendPair struct {
	routes    []route
	nextRoute int
	seq       uint64
}

// Fabric connects N ports. Delivery callbacks run in engine context at the
// packet's arrival time and must not block.
type Fabric struct {
	eng     *sim.Engine
	par     *machine.Params
	n       int
	inj     *faults.Injector
	tr      *tracelog.Log
	send    map[[2]int]*sendPair // per ordered pair, created on first send
	last    map[[2]int]uint64    // reorder tracker: highest seq delivered per pair
	stats   Stats
	deliver []func(*Packet)
}

// New creates a fabric with n ports using the given cost model. The fault
// plan on par compiles into the fabric's injector here; an empty plan
// costs one nil test per packet.
func New(eng *sim.Engine, par *machine.Params, n int) *Fabric {
	if n < 1 {
		panic("switchnet: need at least one port")
	}
	return &Fabric{
		eng:     eng,
		par:     par,
		n:       n,
		inj:     faults.NewInjector(eng, par.Faults),
		send:    make(map[[2]int]*sendPair),
		last:    make(map[[2]int]uint64),
		deliver: make([]func(*Packet), n),
	}
}

// Injector exposes the fabric's compiled fault injector (nil for a clean
// fabric) so the adapters share its script.
func (f *Fabric) Injector() *faults.Injector { return f.inj }

// Ports returns the number of ports.
func (f *Fabric) Ports() int { return f.n }

// Stats returns the cumulative counters.
func (f *Fabric) Stats() Stats { return f.stats }

// SetTrace attaches an event log (nil disables tracing).
func (f *Fabric) SetTrace(tl *tracelog.Log) { f.tr = tl }

// AttachPort registers the delivery callback for a node. It must be called
// once per node before any traffic is sent to it.
func (f *Fabric) AttachPort(node int, deliver func(*Packet)) {
	if f.deliver[node] != nil {
		panic(fmt.Sprintf("switchnet: port %d attached twice", node))
	}
	f.deliver[node] = deliver
}

func (f *Fabric) pairState(src, dst int) *sendPair {
	key := [2]int{src, dst}
	ps := f.send[key]
	if ps == nil {
		ps = &sendPair{routes: make([]route, f.par.RoutesPerPair)}
		for r := range ps.routes {
			ps.routes[r].skew = sim.Time(r) * f.par.RouteSkew
		}
		f.send[key] = ps
	}
	return ps
}

// Send transports pkt from its source to its destination. ready is the time
// the packet finishes injection at the source port (the fabric starts
// transit no earlier). Must be called in the source node's simulation
// context.
//
// The packet transits the route selected round-robin for the ordered pair:
// it waits for the route to be free, occupies it for its serialization time,
// and arrives after the switch base latency plus the route's skew. Fault
// injection may drop or duplicate it.
func (f *Fabric) Send(pkt *Packet, ready sim.Time) {
	if pkt.Src < 0 || pkt.Src >= f.n || pkt.Dst < 0 || pkt.Dst >= f.n {
		panic(fmt.Sprintf("switchnet: bad endpoints %d->%d", pkt.Src, pkt.Dst))
	}
	// Snapshot the payload at the injection boundary: delivery happens at a
	// future virtual time, and the sender is free to reuse or rewrite its
	// buffer meanwhile (the LAPI flow layer re-stamps piggybacked acks into
	// the same bytes on every retransmission). Without the copy, a packet
	// still transiting the switch would retroactively change content. The
	// snapshot comes from the engine's pool; ownership transfers to the
	// in-flight packet and returns to the pool at the delivery or drop
	// point.
	pkt.Payload = f.eng.Pool().Snapshot(pkt.Payload)
	if pkt.Wire < len(pkt.Payload) {
		pkt.Wire = len(pkt.Payload) + f.par.LinkFrameBytes
	}
	ps := f.pairState(pkt.Src, pkt.Dst)
	pkt.seq = ps.seq
	ps.seq++
	f.stats.Injected++
	f.stats.BytesWire += uint64(pkt.Wire)
	f.tr.Emit(f.eng.Now(), tracelog.LFabric, tracelog.KInject, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)

	now := f.eng.Now()
	if f.inj.Drop(now, pkt.Src, pkt.Dst) {
		f.stats.Dropped++
		f.tr.Emit(now, tracelog.LFabric, tracelog.KDrop, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)
		f.eng.Pool().Put(pkt.Payload)
		return
	}

	if f.inj.MayCorrupt() {
		// Stamp the link CRC before corruption can strike, so the HAL
		// check fails on exactly the packets the plan damaged.
		pkt.CRC = crc32.ChecksumIEEE(pkt.Payload)
		pkt.Checked = true
		if f.inj.Corrupt(now, pkt.Src, pkt.Dst) {
			idx := f.inj.CorruptBytes(pkt.Payload)
			f.stats.Corrupted++
			f.tr.Emit(now, tracelog.LFabric, tracelog.KCorrupt, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(idx))
		}
	}

	// The duplicate decision and its snapshot both happen before the
	// first transit: transit consumes no randomness (so the RNG stream
	// order matches the original flat-probability fabric), but it may
	// drop the packet when every route is down, returning the payload to
	// the pool — the duplicate must copy the bytes while they are alive.
	var dup *Packet
	if f.inj.Dup(now, pkt.Src, pkt.Dst) {
		f.stats.Duplicated++
		f.tr.Emit(now, tracelog.LFabric, tracelog.KDup, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)
		// The duplicate carries its own copy of the snapshot so the two
		// deliveries never alias each other's bytes.
		dup = &Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: f.eng.Pool().Snapshot(pkt.Payload), Wire: pkt.Wire, CRC: pkt.CRC, Checked: pkt.Checked, seq: pkt.seq}
	}

	f.transit(pkt, ready)

	if dup != nil {
		// The duplicate takes another trip slightly later, as if
		// retransmitted by a confused link-level retry.
		f.transit(dup, ready+f.par.SwitchBaseLatency)
	}
}

func (f *Fabric) transit(pkt *Packet, ready sim.Time) {
	now := f.eng.Now()
	if ready < now {
		ready = now
	}
	ps := f.pairState(pkt.Src, pkt.Dst)
	r := ps.nextRoute
	if f.inj.MasksRoutes() {
		// Failover: skip routes scripted down, keeping round-robin order
		// over the survivors. With every route down the packet has
		// nowhere to go and the switch discards it.
		skipped := 0
		for skipped < len(ps.routes) && f.inj.RouteDown(now, pkt.Src, pkt.Dst, r) {
			f.stats.RouteMasked++
			f.tr.Emit(now, tracelog.LFabric, tracelog.KRouteMask, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(r))
			r = (r + 1) % len(ps.routes)
			skipped++
		}
		if skipped == len(ps.routes) {
			f.stats.Dropped++
			f.stats.NoRouteDrops++
			f.tr.Emit(now, tracelog.LFabric, tracelog.KNoRoute, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(len(ps.routes)))
			//simlint:allow bufpoolown ownership transfer: the in-flight packet owns the snapshot Send took, and a no-route drop is its delivery point
			f.eng.Pool().Put(pkt.Payload)
			return
		}
	}
	ps.nextRoute = (r + 1) % len(ps.routes)
	pkt.Route = r

	rt := &ps.routes[r]
	start := ready
	if rt.freeAt > start {
		start = rt.freeAt
	}
	ser := f.par.WireTime(pkt.Wire)
	rt.freeAt = start + ser
	arrival := start + ser + f.par.SwitchBaseLatency + rt.skew
	f.tr.Emit(f.eng.Now(), tracelog.LFabric, tracelog.KWire, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(arrival-start))

	f.eng.At(arrival, func() {
		f.stats.Delivered++
		f.tr.Emit(f.eng.Now(), tracelog.LFabric, tracelog.KDeliver, pkt.Dst, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)
		key := [2]int{pkt.Src, pkt.Dst}
		if last, ok := f.last[key]; ok && pkt.seq < last {
			f.stats.Reordered++
		} else {
			f.last[key] = pkt.seq
		}
		if cb := f.deliver[pkt.Dst]; cb != nil {
			cb(pkt)
		}
	})
}

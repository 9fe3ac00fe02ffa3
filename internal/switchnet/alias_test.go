package switchnet

import (
	"bytes"
	"testing"

	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/sim"
)

// TestInFlightPayloadImmutable is the regression test for the in-flight
// aliasing bug: the fabric delivers packets at a future virtual time, so a
// sender that mutates its buffer after Send (as the LAPI flow layer does
// when it re-stamps the piggybacked ack on a retransmission) must not be
// able to change the bytes of a packet already in the switch. On the
// pre-fix fabric the delivered bytes equal the *mutated* buffer.
func TestInFlightPayloadImmutable(t *testing.T) {
	e := sim.NewEngine(1)
	par := machine.SP332()
	f := New(e, &par, 2)

	original := []byte{0xAA, 0xBB, 0xCC, 0xDD, 1, 2, 3, 4}
	buf := append([]byte(nil), original...)

	var got [][]byte
	f.AttachPort(0, nil)
	f.AttachPort(1, func(pkt *Packet) {
		got = append(got, append([]byte(nil), pkt.Payload...))
	})

	e.Spawn("send", func(p *sim.Proc) {
		f.Send(&Packet{Src: 0, Dst: 1, Payload: buf}, 0)
		// "Retransmit" while the first copy is still transiting: overwrite
		// the same buffer (a future ack value) and send it again.
		for i := range buf {
			buf[i] = 0xEE
		}
		f.Send(&Packet{Src: 0, Dst: 1, Payload: buf}, 0)
	})
	e.Run(0)

	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	if !bytes.Equal(got[0], original) {
		t.Errorf("first delivery = %x, want injected bytes %x (in-flight packet mutated by later resend)", got[0], original)
	}
	want2 := bytes.Repeat([]byte{0xEE}, len(original))
	if !bytes.Equal(got[1], want2) {
		t.Errorf("second delivery = %x, want %x", got[1], want2)
	}
}

// TestInFlightPayloadImmutableAfterSendReturns asserts the stronger
// injection-boundary contract: the caller may reuse its buffer the moment
// Send returns, for any packet, retransmitted or not.
func TestInFlightPayloadImmutableAfterSendReturns(t *testing.T) {
	e := sim.NewEngine(1)
	par := machine.SP332()
	f := New(e, &par, 2)

	const n = 16
	buf := make([]byte, 32)
	var got [][]byte
	f.AttachPort(0, nil)
	f.AttachPort(1, func(pkt *Packet) {
		got = append(got, append([]byte(nil), pkt.Payload...))
	})

	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			for j := range buf {
				buf[j] = byte(i)
			}
			f.Send(&Packet{Src: 0, Dst: 1, Payload: buf}, 0)
		}
	})
	e.Run(0)

	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	seen := make(map[byte]bool)
	for _, pl := range got {
		v := pl[0]
		for _, b := range pl {
			if b != v {
				t.Fatalf("delivered packet mixes values: %x", pl)
			}
		}
		if seen[v] {
			t.Fatalf("value %d delivered twice: a packet aliased the reused buffer", v)
		}
		seen[v] = true
	}
	for i := 0; i < n; i++ {
		if !seen[byte(i)] {
			t.Errorf("injected value %d never delivered intact", i)
		}
	}
}

// TestDupPayloadSnapshotUnderFaultInjection covers the same aliasing family
// on the fault-injection path: with a nonzero dup probability the duplicate
// packet must carry the injected bytes, not a live alias of the sender's
// buffer, and the two deliveries must not alias each other.
func TestDupPayloadSnapshotUnderFaultInjection(t *testing.T) {
	e := sim.NewEngine(3)
	par := machine.SP332()
	par.Faults = faults.Uniform(0, 1.0)
	f := New(e, &par, 2)

	original := []byte{9, 8, 7, 6, 5}
	buf := append([]byte(nil), original...)
	var got []*Packet
	f.AttachPort(0, nil)
	f.AttachPort(1, func(pkt *Packet) { got = append(got, pkt) })

	e.Spawn("send", func(p *sim.Proc) {
		f.Send(&Packet{Src: 0, Dst: 1, Payload: buf}, 0)
		for i := range buf {
			buf[i] = 0xFF // sender reuses its buffer immediately
		}
	})
	e.Run(0)

	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want original + duplicate", len(got))
	}
	for i, pkt := range got {
		if !bytes.Equal(pkt.Payload, original) {
			t.Errorf("delivery %d = %x, want injected bytes %x", i, pkt.Payload, original)
		}
	}
	// Mutating one delivered payload must not leak into the other.
	got[0].Payload[0] = 0x42
	if got[1].Payload[0] == 0x42 {
		t.Error("original and duplicate deliveries alias the same backing array")
	}
}

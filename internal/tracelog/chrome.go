// Chrome trace-event JSON export (schema tracelog/v1), loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. One track is rendered
// per node x layer (pid = node, tid = layer); MPI calls become duration
// slices; every other event is an instant; flow arrows follow each causal
// message ID across nodes.
//
// Every exported record embeds the canonical scalar fields of its Event
// in args, so ReadChrome reconstructs the exact event stream (bit-for-bit
// integers, no float round-trip) — that is what cmd/tracediff compares.

package tracelog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"splapi/internal/sim"
)

// Schema tags the exported JSON; ReadChrome rejects anything else.
const Schema = "tracelog/v1"

// WriteChrome writes the events of l in Chrome trace-event JSON format.
// Output is deterministic: identical logs produce identical bytes.
func WriteChrome(w io.Writer, l *Log) error {
	return writeChromeEvents(w, l.Events(), l.Dropped())
}

// WriteChromeFile is WriteChrome to a file path.
func WriteChromeFile(path string, l *Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteChrome(bw, l); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeChromeEvents(w io.Writer, evs []Event, dropped uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"schema\":%q,\"displayTimeUnit\":\"ns\",\"droppedEvents\":%d,\"traceEvents\":[", Schema, dropped)

	first := true
	sep := func() {
		if first {
			first = false
		} else {
			bw.WriteByte(',')
		}
	}

	// Track metadata: one process per node, one thread per layer, in
	// fixed (node, layer) order so output is deterministic.
	maxNode := int32(-1)
	for i := range evs {
		if evs[i].Node > maxNode {
			maxNode = evs[i].Node
		}
	}
	for n := int32(0); n <= maxNode; n++ {
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":"node%d"}}`, n, n)
		for l := Layer(0); l < numLayers; l++ {
			bw.WriteByte(',')
			fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, n, l, l.String())
			bw.WriteByte(',')
			// sort_index puts MPI on top, fabric at the bottom.
			fmt.Fprintf(bw, `{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`, n, l, l)
		}
	}

	flowSeen := make(map[uint64]bool)
	for i := range evs {
		e := &evs[i]
		sep()
		writeOne(bw, e)
		if e.Msg != 0 {
			// Flow arrows: "s" opens the flow at the first event of a
			// causal ID, "t" steps it at each subsequent event.
			ph := "t"
			if !flowSeen[e.Msg] {
				flowSeen[e.Msg] = true
				ph = "s"
			}
			bw.WriteByte(',')
			fmt.Fprintf(bw, `{"name":"msg","cat":"flow","ph":%q,"id":"0x%x","ts":%s,"pid":%d,"tid":%d,"bp":"e"}`,
				ph, e.Msg, tsMicros(e.T), e.Node, e.Layer)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// tsMicros renders a virtual-time ns timestamp as the microsecond string
// Chrome expects, without float rounding (fixed three decimals).
func tsMicros(t sim.Time) string {
	ns := int64(t)
	return strconv.FormatInt(ns/1000, 10) + "." + fmt.Sprintf("%03d", ns%1000)
}

func writeOne(bw *bufio.Writer, e *Event) {
	ph := "i"
	name := e.Kind.String()
	switch e.Kind {
	case KMPIEnter:
		ph = "B"
		name = OpName(e.Arg)
	case KMPIExit:
		ph = "E"
		name = OpName(e.Arg)
	}
	fmt.Fprintf(bw, `{"name":%q,"ph":%q,"ts":%s,"pid":%d,"tid":%d`,
		name, ph, tsMicros(e.T), e.Node, e.Layer)
	if ph == "i" {
		bw.WriteString(`,"s":"t"`)
	}
	fmt.Fprintf(bw, `,"args":{"tns":%d,"layer":%q,"kind":%q,"node":%d,"peer":%d,"msg":"0x%x","size":%d,"arg":%d`,
		int64(e.T), e.Layer.String(), e.Kind.String(), e.Node, e.Peer, e.Msg, e.Size, e.Arg)
	bw.WriteString("}}")
}

// chromeFile mirrors the exported JSON for decoding.
type chromeFile struct {
	Schema        string        `json:"schema"`
	DroppedEvents uint64        `json:"droppedEvents"`
	TraceEvents   []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Ph   string      `json:"ph"`
	Args *chromeArgs `json:"args"`
}

type chromeArgs struct {
	TNS   *int64 `json:"tns"`
	Layer string `json:"layer"`
	Kind  string `json:"kind"`
	Node  int32  `json:"node"`
	Peer  int32  `json:"peer"`
	Msg   string `json:"msg"`
	Size  int32  `json:"size"`
	Arg   int64  `json:"arg"`
}

// ReadChrome parses a tracelog/v1 export back into the canonical event
// stream (metadata and flow records are skipped; events are rebuilt from
// the embedded integer args, so the round trip is exact).
func ReadChrome(r io.Reader) ([]Event, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tracelog: parse: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("tracelog: schema %q, want %q", f.Schema, Schema)
	}
	var evs []Event
	for i := range f.TraceEvents {
		ce := &f.TraceEvents[i]
		switch ce.Ph {
		case "i", "B", "E":
		default:
			continue // metadata, flow arrows
		}
		a := ce.Args
		if a == nil || a.TNS == nil {
			continue
		}
		msg, err := strconv.ParseUint(a.Msg, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("tracelog: event %d: bad msg %q", i, a.Msg)
		}
		k := KindByName(a.Kind)
		if k == KNone && a.Kind != "none" {
			return nil, fmt.Errorf("tracelog: event %d: unknown kind %q", i, a.Kind)
		}
		la := LayerByName(a.Layer)
		if la == numLayers {
			return nil, fmt.Errorf("tracelog: event %d: unknown layer %q", i, a.Layer)
		}
		evs = append(evs, Event{
			T: sim.Time(*a.TNS), Layer: la, Kind: k,
			Node: a.Node, Peer: a.Peer, Msg: msg, Size: a.Size, Arg: a.Arg,
		})
	}
	return evs, nil
}

// ReadChromeFile is ReadChrome from a file path.
func ReadChromeFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := ReadChrome(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

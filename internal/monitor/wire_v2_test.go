package monitor

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"localdrf/internal/prog"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

// haltWorkload is wireWorkload plus thread retirements — the shapes only
// v2 and text can carry.
func haltWorkload() (Header, []Event) {
	hdr, events := wireWorkload()
	events = append(events,
		Event{Thread: 0, Kind: KindHalt},
		Event{Thread: 2, Loc: 0, Kind: WriteNA},
		Event{Thread: 2, Kind: KindHalt},
	)
	return hdr, events
}

// TestWireV2RoundTrip: encode → decode through the delta-compressed v2
// format reproduces the header and every encoded event (kinds, threads,
// locations, halts and RA timestamps) exactly, via both Next and
// NextBatch.
func TestWireV2RoundTrip(t *testing.T) {
	hdr, events := haltWorkload()
	data := encodeAll(t, hdr, events, BinaryV2)
	for _, batched := range []bool{false, true} {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got := tr.Header()
		if got.Threads != hdr.Threads || len(got.Decls) != len(hdr.Decls) {
			t.Fatalf("header mismatch: %+v vs %+v", got, hdr)
		}
		var decoded []Event
		if batched {
			for {
				var ok bool
				decoded, ok, err = tr.NextBatch(decoded)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
		} else {
			for {
				e, ok, err := tr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				decoded = append(decoded, e)
			}
		}
		eventsEqual(t, decoded, events, fmt.Sprintf("batched=%v", batched))
	}
}

// TestWireV2FrameBoundaries: streams longer than one frame round-trip
// across the frame boundary (the delta context persists between frames).
func TestWireV2FrameBoundaries(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 3*defaultFrameEvents+17, 5)
	hdr := Header{Threads: 4, Decls: decls}
	data := encodeAll(t, hdr, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Event
	batches := 0
	for {
		before := len(decoded)
		var ok bool
		decoded, ok, err = tr.NextBatch(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(decoded) == before {
			t.Fatal("NextBatch returned ok with no events")
		}
		batches++
	}
	if batches != 4 {
		t.Fatalf("got %d batches, want 4 (3 full frames + remainder)", batches)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i := range events {
		if decoded[i].Thread != events[i].Thread || decoded[i].Loc != events[i].Loc || decoded[i].Kind != events[i].Kind {
			t.Fatalf("event %d: got %+v, want %+v", i, decoded[i], events[i])
		}
	}
}

// TestWireV2MonitorParity: monitoring the v2-decoded stream (per event
// and per batch) reports exactly what the original slice reports.
func TestWireV2MonitorParity(t *testing.T) {
	hdr, events := haltWorkload()
	direct := New(hdr.Threads, hdr.Decls)
	direct.StepBatch(events)
	want := direct.Reports()
	if len(want) == 0 {
		t.Fatal("workload produced no races; not a useful fixture")
	}
	data := encodeAll(t, hdr, events, BinaryV2)
	got, err := ReadRaces(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(got, want) {
		t.Fatalf("v2 decoded reports %v, want %v", got, want)
	}
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m := tr.NewMonitor()
	if err := m.FeedBatch(tr); err != nil {
		t.Fatal(err)
	}
	if !race.ReportsEqual(m.Reports(), want) {
		t.Fatalf("v2 FeedBatch reports %v, want %v", m.Reports(), want)
	}
}

// TestWireV2SemanticsMatchV1: a halt-free stream — the only shape the
// retired v1 format could carry — decodes through v2 and through text to
// exactly the encoded events, so dropping v1 lost no expressible trace.
func TestWireV2SemanticsMatchV1(t *testing.T) {
	hdr, events := wireWorkload()
	for _, format := range []Format{BinaryV2, Text} {
		tr, err := NewTraceReader(bytes.NewReader(encodeAll(t, hdr, events, format)))
		if err != nil {
			t.Fatal(err)
		}
		eventsEqual(t, decodeVia(t, tr), events, fmt.Sprintf("format %v", format))
	}
}

// TestWireV2Rejects: the v2 decoder errors (never panics) on every
// malformed-frame class.
func TestWireV2Rejects(t *testing.T) {
	hdr, events := haltWorkload()
	v2 := encodeAll(t, hdr, events, BinaryV2)
	hdrOnly := encodeAll(t, hdr, nil, BinaryV2)

	cases := []struct {
		name string
		data []byte
	}{
		{"future version", func() []byte {
			b := append([]byte{}, v2...)
			b[4] = 3
			return b
		}()},
		{"truncated frame payload", v2[:len(v2)-1]},
		{"truncated frame length", append(append([]byte{}, hdrOnly...), 0xff)},
		{"zero-length frame", append(append([]byte{}, hdrOnly...), 0x00)},
		{"oversized frame length", append(append([]byte{}, hdrOnly...), 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"zero event count", append(append([]byte{}, hdrOnly...), 0x01, 0x00)},
		{"event count exceeding payload", append(append([]byte{}, hdrOnly...), 0x02, 0xff, 0x7f)},
		{"trailing bytes after events", append(append([]byte{}, hdrOnly...),
			// payload: count=1, one NA-write event (tag only), junk byte.
			0x03, 0x01, byte(WriteNA)|7<<4, 0xAA)},
		{"unterminated varint", append(append([]byte{}, hdrOnly...),
			// count=1, tag with explicit loc delta, then 0x80s forever.
			0x0c, 0x01, byte(WriteNA)|15<<4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)},
		{"thread delta out of range", append(append([]byte{}, hdrOnly...),
			// count=1, tag with thread delta −1 from prevThread 0.
			0x04, 0x01, byte(WriteNA)|1<<3|7<<4, 0x01)},
		{"loc delta out of range", append(append([]byte{}, hdrOnly...),
			// count=1, tag loc field 0 → delta −7 from prevLoc 0.
			0x03, 0x01, byte(WriteNA)|0<<4)},
		{"halt with nonzero loc field", append(append([]byte{}, hdrOnly...),
			0x03, 0x01, byte(KindHalt)|7<<4)},
		{"kind 7", append(append([]byte{}, hdrOnly...), 0x03, 0x01, 7|7<<4)},
		{"event after halt", append(append([]byte{}, hdrOnly...),
			// count=2: halt t0, then a WriteNA by t0 — breaks the halt
			// promise the monitor's +∞ frontier treatment relies on.
			0x03, 0x02, byte(KindHalt), byte(WriteNA)|7<<4)},
		{"double halt", append(append([]byte{}, hdrOnly...),
			0x03, 0x02, byte(KindHalt), byte(KindHalt))},
		{"text event after halt", []byte("ldtrace 1\nthreads 2\nloc x na\n0 halt\n0 w x\n")},
		{"text double halt", []byte("ldtrace 1\nthreads 2\nloc x na\n0 halt\n0 halt\n")},
		{"zero timestamp denominator", append(append([]byte{}, hdrOnly...),
			// count=1, ReadRA on loc 2 ("R"): loc delta +2, dnum 1, den 0.
			0x05, 0x01, byte(ReadRA)|15<<4, 0x04, 0x02, 0x00)},
	}
	for _, tc := range cases {
		if _, err := ReadRaces(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: decoder accepted malformed input", tc.name)
		}
	}

	// The encoder enforces the halt promise too, in every halt-capable
	// format: no event after a thread's halt, no double halt.
	for _, format := range []Format{BinaryV2, Text} {
		var hbuf bytes.Buffer
		htw, err := NewTraceWriter(&hbuf, hdr, format)
		if err != nil {
			t.Fatal(err)
		}
		if err := htw.Write(Event{Thread: 1, Kind: KindHalt}); err != nil {
			t.Fatalf("%v: first halt rejected: %v", format, err)
		}
		if err := htw.Write(Event{Thread: 1, Loc: 0, Kind: WriteNA}); err == nil {
			t.Errorf("%v writer accepted an event after the thread's halt", format)
		}
		if err := htw.Write(Event{Thread: 1, Kind: KindHalt}); err == nil {
			t.Errorf("%v writer accepted a double halt", format)
		}
		if err := htw.Write(Event{Thread: 0, Loc: 0, Kind: WriteNA}); err != nil {
			t.Errorf("%v writer rejected an unrelated thread after a halt: %v", format, err)
		}
	}
}

// TestWireRejectsV1: a binary header carrying version byte 1 — the
// retired per-event encoding — fails at the header with an error that
// names v1, whatever follows it.
func TestWireRejectsV1(t *testing.T) {
	hdr, events := wireWorkload()
	data := encodeAll(t, hdr, events, BinaryV2)
	data[len(binaryMagic)] = 1
	_, err := NewTraceReader(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 header: err = %v, want an error naming v1", err)
	}
	if _, err := NewParallelTraceReader(bytes.NewReader(data), 4); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 header through the parallel reader: err = %v, want an error naming v1", err)
	}
}

// TestWireV2TextHalt: the text format round-trips halt lines.
func TestWireV2TextHalt(t *testing.T) {
	hdr, events := haltWorkload()
	data := encodeAll(t, hdr, events, Text)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	halts := 0
	for {
		e, ok, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Kind == KindHalt {
			halts++
		}
	}
	if halts != 2 {
		t.Fatalf("decoded %d halt events, want 2", halts)
	}
}

// TestWireV2TimestampDeltas: timestamps with denominators and negative
// deltas survive the per-location delta chain.
func TestWireV2TimestampDeltas(t *testing.T) {
	hdr := Header{Threads: 2, Decls: []LocDecl{{Name: "R", Kind: prog.ReleaseAcquire}}}
	events := []Event{
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(5, 3)},
		{Thread: 1, Loc: 0, Kind: ReadRA, Time: ts.New(5, 3)},
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(-2, 7)},
		{Thread: 1, Loc: 0, Kind: ReadRA, Time: ts.New(-2, 7)},
		{Thread: 0, Loc: 0, Kind: WriteRA, Time: ts.New(1000000, 1)},
	}
	data := encodeAll(t, hdr, events, BinaryV2)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		e, ok, err := tr.Next()
		if err != nil || !ok {
			t.Fatalf("event %d: ok=%v err=%v", i, ok, err)
		}
		if !e.Time.Equal(want.Time) {
			t.Fatalf("event %d: timestamp %v, want %v", i, e.Time, want.Time)
		}
	}
}

package monitor

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// decodeVia drains a BatchSource to the end, returning every event.
func decodeVia(t *testing.T, src BatchSource) []Event {
	t.Helper()
	var all []Event
	for {
		var ok bool
		var err error
		all, ok, err = src.NextBatch(all)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return all
		}
	}
}

// eventsEqual compares decoded event streams field-by-field (Time via
// ts equality, and only where the wire format preserves it).
func eventsEqual(t *testing.T, got, want []Event, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Thread != w.Thread || g.Kind != w.Kind {
			t.Fatalf("%s: event %d: got %+v, want %+v", label, i, g, w)
		}
		if w.Kind != KindHalt && g.Loc != w.Loc {
			t.Fatalf("%s: event %d: loc %d, want %d", label, i, g.Loc, w.Loc)
		}
		if (w.Kind == ReadRA || w.Kind == WriteRA) && !g.Time.Equal(w.Time) {
			t.Fatalf("%s: event %d: timestamp %v, want %v", label, i, g.Time, w.Time)
		}
	}
}

// TestParallelParseMatchesSequential: the parallel reader yields exactly
// the sequential reader's event stream, for worker counts around and
// beyond the frame count, including the halt-bearing workload.
func TestParallelParseMatchesSequential(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 3*defaultFrameEvents+17, 5)
	hdr := Header{Threads: 4, Decls: decls}
	long := encodeAll(t, hdr, events, BinaryV2)
	hhdr, hevents := haltWorkload()
	short := encodeAll(t, hhdr, hevents, BinaryV2)
	cases := []struct {
		name   string
		data   []byte
		events []Event
	}{
		{"long", long, events},
		{"halts", short, hevents},
	}
	for _, tc := range cases {
		for _, parsers := range []int{1, 2, 3, 4, 8} {
			pr, err := NewParallelTraceReader(bytes.NewReader(tc.data), parsers)
			if err != nil {
				t.Fatal(err)
			}
			if parsers < 2 && pr.seq == nil {
				t.Fatalf("parsers=%d: expected sequential fallback", parsers)
			}
			got := decodeVia(t, pr)
			pr.Close()
			eventsEqual(t, got, tc.events, fmt.Sprintf("%s/parsers=%d", tc.name, parsers))
		}
	}
}

// TestParallelParseFallsBackForText: text traces have no frames to
// parallelise; the reader must fall back and still decode correctly,
// halts included.
func TestParallelParseFallsBackForText(t *testing.T) {
	hdr, events := haltWorkload()
	data := encodeAll(t, hdr, events, Text)
	pr, err := NewParallelTraceReader(bytes.NewReader(data), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if pr.seq == nil {
		t.Fatal("text trace: expected sequential fallback")
	}
	eventsEqual(t, decodeVia(t, pr), events, "text-fallback")
}

// TestParallelParseErrorParity: a corrupted trace must fail through the
// parallel reader with the same error, and the same decoded prefix, as
// through the sequential one — errors are stream-ordered, not
// whichever-worker-noticed-first.
func TestParallelParseErrorParity(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 2*defaultFrameEvents+100, 7)
	hdr := Header{Threads: 4, Decls: decls}
	data := encodeAll(t, hdr, events, BinaryV2)
	corrupt := [][]byte{
		data[:len(data)-3],           // truncated mid-frame
		data[:len(data)/2],           // truncated around a frame boundary
		append(bytes.Clone(data), 0), // trailing garbage frame header
	}
	for ci, cdata := range corrupt {
		var seqEvents []Event
		var seqErr error
		tr, err := NewTraceReader(bytes.NewReader(cdata))
		if err != nil {
			t.Fatal(err)
		}
		for {
			var ok bool
			seqEvents, ok, seqErr = tr.NextBatch(seqEvents)
			if seqErr != nil || !ok {
				break
			}
		}
		for _, parsers := range []int{2, 4} {
			pr, err := NewParallelTraceReader(bytes.NewReader(cdata), parsers)
			if err != nil {
				t.Fatal(err)
			}
			var parEvents []Event
			var parErr error
			for {
				var ok bool
				parEvents, ok, parErr = pr.NextBatch(parEvents)
				if parErr != nil || !ok {
					break
				}
			}
			pr.Close()
			if (seqErr == nil) != (parErr == nil) ||
				(seqErr != nil && seqErr.Error() != parErr.Error()) {
				t.Fatalf("corruption %d parsers=%d: error %q, sequential %q", ci, parsers, parErr, seqErr)
			}
			if len(parEvents) != len(seqEvents) {
				t.Fatalf("corruption %d parsers=%d: %d events before error, sequential %d",
					ci, parsers, len(parEvents), len(seqEvents))
			}
		}
	}
}

// TestParallelParseEarlyClose: abandoning the reader mid-stream must not
// deadlock or leak the worker goroutines.
func TestParallelParseEarlyClose(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 4*defaultFrameEvents, 9)
	hdr := Header{Threads: 4, Decls: decls}
	data := encodeAll(t, hdr, events, BinaryV2)
	pr, err := NewParallelTraceReader(bytes.NewReader(data), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := pr.NextBatch(nil); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	pr.Close() // three frames still in flight
	pr.Close() // idempotent
}

// TestParallelFeedMatchesSequential: the full monitoring result —
// reports and retention stats — is identical whether the trace was
// decoded sequentially or by the parallel front-end, for both the plain
// monitor (fed with FeedBatch) and the sharded pipeline sink.
func TestParallelFeedMatchesSequential(t *testing.T) {
	decls, events := syntheticWorkload(4, 16, 2*defaultFrameEvents+321, 11)
	hdr := Header{Threads: 4, Decls: decls}
	data := encodeAll(t, hdr, events, BinaryV2)

	want, err := MonitorReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, parsers := range []int{2, 4} {
		pr, err := NewParallelTraceReader(bytes.NewReader(data), parsers)
		if err != nil {
			t.Fatal(err)
		}
		m := pr.NewMonitor()
		if err := m.FeedBatch(pr); err != nil {
			t.Fatal(err)
		}
		pr.Close()
		if !reflect.DeepEqual(m.Reports(), want.Reports()) {
			t.Fatalf("parsers=%d: reports diverge from sequential decode", parsers)
		}
		if m.RAStats() != want.RAStats() {
			t.Fatalf("parsers=%d: RAStats %+v, want %+v", parsers, m.RAStats(), want.RAStats())
		}

		reports, stats, err := ReadRacesParallel(bytes.NewReader(data), parsers,
			PipelineConfig{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports, want.Reports()) {
			t.Fatalf("parsers=%d: pipeline reports diverge from sequential decode", parsers)
		}
		if stats != want.RAStats() {
			t.Fatalf("parsers=%d: pipeline RAStats %+v, want %+v", parsers, stats, want.RAStats())
		}
	}
}

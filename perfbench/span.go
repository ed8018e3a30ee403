package main

// Layer spans for the traced run. The benchmark records a span around
// every call it makes into a layer (decode a batch, step a batch, take
// a snapshot, verify a litmus test, ...). Spans are kept in memory and
// written out once the run ends, so recording costs two clock reads and
// an append; with a nil *tracer (the untraced runs) every method is a
// no-op.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed layer call. Parent is the index of the enclosing
// span (-1 for a root). Unit names the pass or session the span belongs
// to; every span of one pass or session shares it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Unit   int32  `json:"unit"`
}

type tracer struct {
	t0    time.Time
	spans []span
	units int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// unit returns a fresh pass/session id (-1 when untraced).
func (t *tracer) unit() int32 {
	if t == nil {
		return -1
	}
	t.units++
	return t.units - 1
}

// begin opens a span and returns its index for end (-1 when untraced).
func (t *tracer) begin(name string, parent, unit int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Unit: unit})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.spans[id].End = now
}

// add records a span whose bounds were taken elsewhere (the service
// phases, timed inside a connection wrapper).
func (t *tracer) add(name string, start, end time.Time, parent, unit int32) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Unit: unit})
}

// unitTimes is one pass or session as the trace saw it: its root span's
// duration and the self time of each layer inside it, in nanoseconds.
type unitTimes struct {
	total int64
	self  map[string]int64
}

// unitsOf returns, for every unit whose root span is named root, its
// duration and per-layer self time. A span's self time is its duration
// minus the time its child spans cover; what is left of the root is the
// time no layer span accounts for, kept under the root's own name.
func (t *tracer) unitsOf(root string) []unitTimes {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byUnit := map[int32]*unitTimes{}
	var order []int32
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == root {
			byUnit[s.Unit] = &unitTimes{total: s.End - s.Start, self: map[string]int64{}}
			order = append(order, s.Unit)
		}
	}
	for i, s := range t.spans {
		if u, ok := byUnit[s.Unit]; ok {
			u.self[s.Name] += s.End - s.Start - children[i]
		}
	}
	out := make([]unitTimes, 0, len(order))
	for _, id := range order {
		out = append(out, *byUnit[id])
	}
	return out
}

// layerSeconds is the median over units of one layer's self time.
func layerSeconds(us []unitTimes, layer string) float64 {
	v := make([]float64, len(us))
	for i, u := range us {
		v[i] = float64(u.self[layer]) / 1e9
	}
	return median(v)
}

// layerShare is the layer's self time as a share of all unit time.
func layerShare(us []unitTimes, layer string) float64 {
	var part, whole int64
	for _, u := range us {
		part += u.self[layer]
		whole += u.total
	}
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// write stores every span as one JSON line, preceded by a header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// median of v (0 for an empty slice); v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of v (0 for an empty slice);
// v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

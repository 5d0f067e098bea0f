package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Spans are recorded only by the
// benchmark's own code, around its calls into the program's packages.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, which is how the untraced run measures.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one span and returns its id (0 from a nil tracer).
func (t *tracer) record(name string, parent int64, start, end time.Time, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)), Attrs: attrs,
	})
	return id
}

// timed runs f inside a top-level span.
func (t *tracer) timed(name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, 0, start, end, nil)
	return end.Sub(start)
}

// selfMs returns, for every span with the given name, its duration minus
// the part of that interval its child spans cover.
func (t *tracer) selfMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.End-s.Start-covered(s, children[s.ID]))
	}
	sort.Float64s(out)
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curLo, curHi float64
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// quantile is the nearest-rank q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

package main

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// TestScheduleDeterminism: the same seed yields identical due times,
// sessions and inputs; another seed yields different ones.
func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) []request {
			return openLoopSchedule(rngFor(seed, w.name, "phase/knee"), w.knee, 2*time.Second, w.burst, w.mix(), w.pool)
		}
		a, b, c := gen(1), gen(1), gen(2)
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", w.name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", w.name)
		}
		for i := 1; i < len(a); i++ {
			if a[i].due < a[i-1].due {
				t.Fatalf("%s: due times not sorted at %d", w.name, i)
			}
		}
		if want := int(w.knee*2/float64(w.burst)) * w.burst; abs(len(a)-want) > w.burst {
			t.Errorf("%s: %d requests in 2 s at %v/s, want about %d", w.name, len(a), w.knee, want)
		}
	}
}

// TestCorpusDeterminism: the generated inputs depend only on the seed.
func TestCorpusDeterminism(t *testing.T) {
	w, err := workloadByName("hetero-emulated")
	if err != nil {
		t.Fatal(err)
	}
	m := w.model()
	a, err := buildCorpus(w, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(w, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildCorpus(w, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.payload {
		if !bytes.Equal(a.payload[i], b.payload[i]) || !bytes.Equal(a.want[0][i], b.want[0][i]) {
			t.Fatalf("input %d differs between two corpora of seed 1", i)
		}
	}
	if bytes.Equal(a.payload[0], c.payload[0]) {
		t.Error("seeds 1 and 2 gave the same first input")
	}
}

// TestValidRun: a run whose light-load generator lateness exceeds the
// stated fraction of lat_p50_ms.light is flagged invalid.
func TestValidRun(t *testing.T) {
	if !validRun(1, 10) {
		t.Error("1 ms lateness against a 10 ms p50 flagged invalid")
	}
	if validRun(10*lateFracLimit+0.1, 10) {
		t.Error("lateness above the limit not flagged")
	}
}

// TestEnvironmentRecorded: every result line records where it was measured.
func TestEnvironmentRecorded(t *testing.T) {
	env := environment()
	for _, k := range []string{"nproc", "gomaxprocs", "simd_name", "go_version", "commit"} {
		if v, ok := env[k]; !ok || v == "" {
			t.Errorf("environment lacks %s", k)
		}
	}
}

// TestFailureRule: any non-200 fails outside over; in over only 5xx,
// timeouts and mismatches do.
func TestFailureRule(t *testing.T) {
	now := time.Now()
	out := []outcome{
		{status: http.StatusOK, match: true, due: now, done: now.Add(time.Millisecond)},
		{status: http.StatusOK, match: false},
		{status: http.StatusTooManyRequests},
		{status: http.StatusServiceUnavailable},
		{status: 0},
	}
	if ps := summarize("knee", true, out, time.Second); ps.fail != 4 || ps.shed != 1 || ps.good != 1 {
		t.Errorf("knee: fail %d shed %d good %d, want 4 1 1", ps.fail, ps.shed, ps.good)
	}
	if ps := summarize("over", true, out, time.Second); ps.fail != 3 || ps.shed != 1 {
		t.Errorf("over: fail %d shed %d, want 3 1", ps.fail, ps.shed)
	}
}

// TestSelfTime: a span's self time excludes the union of its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	p := tr.record("serve.handler", 0, at(0), at(10), nil)
	tr.record("runtime.task", p, at(2), at(6), nil)
	tr.record("runtime.task", p, at(4), at(8), nil)
	if got := tr.selfMs("serve.handler"); len(got) != 1 || got[0] < 3.999 || got[0] > 4.001 {
		t.Errorf("self time %v, want [4]", got)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

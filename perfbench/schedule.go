package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// request is one generated inference call: when it is due (an offset from
// its phase's start; zero in the closed loop), which session it targets and
// which pooled input it carries.
type request struct {
	due     time.Duration
	session int
	input   int
}

// rngFor derives an independent generator for one (seed, workload, stream)
// triple, so each phase's schedule and the input pool are reproducible on
// their own and a different seed changes all of them.
func rngFor(seed int64, workload, stream string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(workload))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// openLoopSchedule draws a Poisson schedule of bursts at rate/burst bursts
// per second over dur, each burst carrying burst simultaneous requests. The
// number of bursts is fixed at round(rate·dur/burst) and their times are
// uniform over the phase — a Poisson process conditioned on its count — so
// the offered load of a phase does not vary from seed to seed while every
// gap still is random.
func openLoopSchedule(rng *rand.Rand, rate float64, dur time.Duration, burst int, mix []float64, pool int) []request {
	if burst < 1 {
		burst = 1
	}
	n := int(math.Round(rate * dur.Seconds() / float64(burst)))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(times)
	reqs := make([]request, 0, n*burst)
	for _, t := range times {
		for b := 0; b < burst; b++ {
			reqs = append(reqs, request{
				due:     time.Duration(t * float64(time.Second)),
				session: pick(rng, mix),
				input:   rng.Intn(pool),
			})
		}
	}
	return reqs
}

// closedLoopSequence draws the order in which closed-loop clients take
// requests: n of them, sessions by mix.
func closedLoopSequence(rng *rand.Rand, n int, mix []float64, pool int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{session: pick(rng, mix), input: rng.Intn(pool)}
	}
	return reqs
}

// pick draws an index with probability proportional to its weight.
func pick(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

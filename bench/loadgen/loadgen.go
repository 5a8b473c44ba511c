// Package loadgen offers load to a server in an open loop: seeded Poisson
// arrivals at a fixed rate, each request timed from when it was due, so
// a stall shows in every request queued behind it. It knows nothing of
// HTTP: each sender calls a Do function, which owns one connection.
//
// internal/blast is not reused: its pacer drops tokens whenever every
// worker is busy, so the offered rate silently falls to what the server
// sustains, and it times latency from the send, so a stall never shows
// in the requests queued behind it.
package loadgen

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Call is one request handed to a sender.
type Call struct {
	Seq  int       // arrival index within the phase
	Conn int       // the sender serving it, 0 ≤ Conn < conns
	Due  time.Time // when it was due
}

// Done is what serving one call produced.
type Done struct {
	// End is when the answer was fully received; checking it afterwards
	// is not the server's time.
	End time.Time
	// Docs is how many documents were answered correctly; OK is whether
	// the whole answer was correct.
	Docs int
	OK   bool
}

// Do serves one call on connection c.Conn.
type Do func(c Call) Done

// Sample is the timing of one call.
type Sample struct {
	Seq int
	// Late is how long after its due time an idle sender woke for the
	// call: the generator's own lateness, not the system's.
	Late time.Duration
	// ConnWait is how long the due call waited for a sender to free up,
	// the queue the system under test builds.
	ConnWait time.Duration
	// Latency runs from the due time to the end of the response.
	Latency time.Duration
	// Due and Start are when the call was due and when a sender took it,
	// relative to the phase start.
	Due, Start time.Duration
	Docs       int
	OK         bool
}

// Stats is what one phase measured.
type Stats struct {
	Samples Samples
	// Elapsed is the phase length, from its start until the last call
	// ended.
	Elapsed time.Duration
	// BacklogEnd is how many calls were due before the phase ended but
	// not yet taken by a sender when it did.
	BacklogEnd int
}

// Open offers calls at rate per second for d, with exponential
// inter-arrival gaps drawn from seed, to conns senders. A free sender
// takes the next arrival and, if it is not yet due, sleeps until it is;
// a sender that frees up after the next arrival came due takes it at
// once, and the difference is connection wait. Calls due before d ends
// but not yet taken are served before Open returns, so a backlog costs
// its full latency.
func Open(ctx context.Context, rate float64, d time.Duration, seed int64, conns int, do Do) Stats {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); t < d; {
		due = append(due, t)
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	var next atomic.Int64
	start := time.Now()
	results := make([][]Sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				at := start.Add(due[k])
				s := Sample{Seq: k, Due: due[k]}
				took := time.Now()
				if took.Before(at) {
					time.Sleep(at.Sub(took))
					took = time.Now()
					s.Late = took.Sub(at)
				} else {
					s.ConnWait = took.Sub(at)
				}
				r := do(Call{Seq: k, Conn: c, Due: at})
				s.Docs, s.OK, s.Latency = r.Docs, r.OK, r.End.Sub(at)
				s.Start = took.Sub(start)
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	st := Stats{Samples: merge(results), Elapsed: time.Since(start)}
	for _, s := range st.Samples {
		if s.Start >= d {
			st.BacklogEnd++
		}
	}
	return st
}

func merge(parts [][]Sample) Samples {
	var all Samples
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// Samples are the calls of a phase or of part of one.
type Samples []Sample

// Windows cuts the phase [0, span) into n equal windows by due time and
// returns each window's samples.
func (s Samples) Windows(n int, span time.Duration) []Samples {
	out := make([]Samples, n)
	for _, x := range s {
		i := int(int64(x.Due) * int64(n) / int64(span))
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], x)
	}
	return out
}

// Quantile is the nearest-rank q-quantile of xs. It sorts xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// LatenciesMs returns each sample's latency in milliseconds, +Inf for a
// failed call.
func (s Samples) LatenciesMs() []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.Latency)
		if !x.OK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// Docs is the number of documents answered correctly.
func (s Samples) Docs() int {
	n := 0
	for _, x := range s {
		n += x.Docs
	}
	return n
}

// Failed is the number of calls whose response was not correct.
func (s Samples) Failed() int {
	n := 0
	for _, x := range s {
		if !x.OK {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// LateMs returns every sample's generator lateness in milliseconds.
func (s Samples) LateMs() []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.Late)
	}
	return out
}

// ConnWaitMs returns every sample's connection wait in milliseconds.
func (s Samples) ConnWaitMs() []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.ConnWait)
	}
	return out
}

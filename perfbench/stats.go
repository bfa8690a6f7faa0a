package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// dist holds raw samples of one timing or size. Percentiles are exact order
// statistics over every sample (nearest rank), never histogram buckets.
type dist []float64

func (d *dist) add(v float64) { *d = append(*d, v) }

func (d *dist) addDur(t time.Duration, unit time.Duration) {
	*d = append(*d, float64(t)/float64(unit))
}

// pct returns the nearest-rank q-quantile, 0 for an empty set.
func (d dist) pct(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func (d dist) median() float64 { return d.pct(0.5) }

// series is a dist whose samples also carry when each was taken, as time
// since the start of the phase.
type series struct {
	dist
	at []time.Duration
}

func (s *series) addAt(at, t, unit time.Duration) {
	s.addDur(t, unit)
	s.at = append(s.at, at)
}

// reserve makes room for n samples outside the Go heap, so that recording
// them does not grow the live heap during a phase. The garbage collector
// paces itself by the live heap; on a small graph the server's heap is a
// few MB, and samples kept on the heap would make collections rarer as the
// phase goes on and the read tail shrink with it.
func (s *series) reserve(n int) {
	s.dist = offHeap[float64](n)
	s.at = offHeap[time.Duration](n)
}

// offHeap returns an empty slice with capacity n in anonymous memory the
// garbage collector neither scans nor counts; the kernel backs its pages
// only once they are written. T must hold no pointers. Where the mapping
// fails it falls back to the heap.
func offHeap[T float64 | time.Duration](n int) []T {
	size := n * int(unsafe.Sizeof(T(0)))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n)[:0]
}

// merge appends o's samples, whose phase started shift after s's.
func (s *series) merge(o series, shift time.Duration) {
	s.dist = append(s.dist, o.dist...)
	for _, at := range o.at {
		s.at = append(s.at, at+shift)
	}
}

// tailSpan is the shortest window of windowedTail: ten churn periods.
const tailSpan = time.Second

// windowedTail splits the phase of length elapsed into an odd number, at
// least three, of equal consecutive windows of at least tailSpan each, the
// most that leave every window ten samples beyond the q-quantile, and
// returns the median of the windows' exact q-quantiles and the window
// count. A slow stretch of a shared host then moves one window's tail, not
// the reported one. Where no three windows qualify it is the exact
// q-quantile over every sample, with a count of 1. Too few samples for ten
// beyond the q-quantile is an error.
func (s series) windowedTail(name string, q float64, elapsed time.Duration) (float64, int, error) {
	per := tailWindow(q)
	if len(s.dist) < per {
		return 0, 0, fmt.Errorf("%s: %d samples, need at least %d for ten beyond p%g", name, len(s.dist), per, q*100)
	}
	for k := int(elapsed / tailSpan); k >= 3; k-- {
		if k%2 == 0 {
			continue
		}
		wins := make([]dist, k)
		for i, v := range s.dist {
			w := int(int64(s.at[i]) * int64(k) / int64(elapsed))
			wins[max(0, min(w, k-1))].add(v)
		}
		var tails dist
		for _, w := range wins {
			if len(w) < per {
				break
			}
			tails.add(w.pct(q))
		}
		if len(tails) == k {
			return tails.median(), k, nil
		}
	}
	return s.pct(q), 1, nil
}

// tailWindow is the fewest samples that leave ten beyond the q-quantile.
func tailWindow(q float64) int { return int(math.Round(10 / (1 - q))) }

// rate counts events in consecutive one-second windows.
type rate []int

func (r *rate) count(since time.Duration, n int) {
	i := int(since / time.Second)
	for len(*r) <= i {
		*r = append(*r, 0)
	}
	(*r)[i] += n
}

// merge adds o's counts, whose phase started shift after r's.
func (r *rate) merge(o rate, shift time.Duration) {
	for i, n := range o {
		r.count(time.Duration(i)*time.Second+shift, n)
	}
}

// perSec is the median over the complete windows of elapsed of the events
// per window, so a slow stretch of the host moves it less than an average.
func (r rate) perSec(elapsed time.Duration) float64 {
	var d dist
	for i, n := range r {
		if time.Duration(i+1)*time.Second <= elapsed {
			d.add(float64(n))
		}
	}
	return d.median()
}

// iqr returns the distance between the first and third quartile.
func (d dist) iqr() float64 { return d.pct(0.75) - d.pct(0.25) }

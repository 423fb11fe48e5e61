package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailWindows is how many consecutive windows tailQuantile splits a run
// into.
const tailWindows = 5

// tailQuantile is the median, over tailWindows equal consecutive windows
// of xs (in time order), of each window's q-quantile: a tail estimate
// that one burst of noise from outside the program cannot move alone.
func tailQuantile(xs []float64, q float64) float64 {
	n := len(xs) / tailWindows
	if n == 0 {
		return quantile(xs, q)
	}
	per := make([]float64, tailWindows)
	for i := range per {
		per[i] = quantile(xs[i*n:(i+1)*n], q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

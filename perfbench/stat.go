package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for _, x := range xs {
		if math.IsNaN(m) || x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// histQuantile estimates a quantile of a histogram summed over several
// scrapes, interpolating inside the owning bucket as the daemon's own
// Histogram.Quantile does. NaN when the histogram is empty or absent.
func histQuantile(scrapes []map[string]float64, name string, q float64) (float64, float64) {
	cum := map[float64]float64{}
	prefix := name + `_bucket{le="`
	for _, m := range scrapes {
		for k, v := range m {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
			b := math.Inf(1)
			if le != "+Inf" {
				var err error
				if b, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			cum[b] += v
		}
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return math.NaN(), 0
	}
	total := cum[bounds[len(bounds)-1]]
	target := q * total
	prevB, prevC := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		if c >= target && c > prevC {
			if math.IsInf(b, 1) {
				return prevB, total
			}
			return prevB + (b-prevB)*(target-prevC)/(c-prevC), total
		}
		prevB, prevC = b, c
	}
	return prevB, total
}

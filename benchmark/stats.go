package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// minTailSamples is the fewest samples a class needs before its p99 is
// reported: ten samples lie beyond the 99th percentile of 1,000, fewer make
// the figure one request's luck.
const minTailSamples = 1000

var errTooFewSamples = errors.New("too few samples for this percentile")

// samples is one operation class's latencies in milliseconds.
type samples []float64

// quantile returns the q-quantile (0..1) by nearest rank over a sorted copy.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c[int(q*float64(len(c)-1)+0.5)]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

// p99 refuses below minTailSamples instead of reporting a noisy tail.
func (s samples) p99() (float64, error) {
	if len(s) < minTailSamples {
		return 0, fmt.Errorf("p99 over %d samples (need %d): %w", len(s), minTailSamples, errTooFewSamples)
	}
	return s.quantile(0.99), nil
}

// spread is the interquartile range as a share of the median, the run-to-run
// noise measure BENCHMARK.json bounds are calibrated against. It uses the
// exclusive quartile method (Python's statistics.quantiles default).
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	c := append([]float64(nil), values...)
	sort.Float64s(c)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return c[0]
		}
		if lo >= n {
			return c[n-1]
		}
		return c[lo-1] + (pos-float64(lo))*(c[lo]-c[lo-1])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / med
}

// lookup walks a decoded JSON document by object keys and returns the number
// found there. It is deliberately lenient: /stats is not a stable API, so a
// missing or retyped key yields ok=false and the metric is left out rather
// than the run failing.
func lookup(doc any, path ...string) (float64, bool) {
	for _, k := range path {
		m, ok := doc.(map[string]any)
		if !ok {
			return 0, false
		}
		if doc, ok = m[k]; !ok {
			return 0, false
		}
	}
	switch v := doc.(type) {
	case float64:
		return v, true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	}
	return 0, false
}

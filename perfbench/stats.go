package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks; NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits samples, in arrival order, into consecutive
// windows just large enough for 10 samples to lie beyond the
// p-quantile, and returns the median of the windows' quantiles. With
// fewer than 3 windows it is the quantile of all samples. A burst that
// slows one stretch of the run moves a few windows, not the median.
func windowedQuantile(xs []float64, p float64) float64 {
	w := int(math.Ceil(10 / (1 - p)))
	n := len(xs) / w
	if n < 3 {
		return quantile(xs, p)
	}
	qs := make([]float64, n)
	for i := range qs {
		end := (i + 1) * w
		if i == n-1 {
			end = len(xs)
		}
		qs[i] = quantile(xs[i*w:end], p)
	}
	return median(qs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// runtimeStats is the Go runtime's cumulative allocation and GC pause.
type runtimeStats struct {
	alloc   uint64
	gcPause time.Duration
}

func (r *runtimeStats) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.alloc, r.gcPause = m.TotalAlloc, time.Duration(m.PauseTotalNs)
}

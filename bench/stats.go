package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile interpolates linearly between ranks; xs need not be
// sorted and is left untouched. An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// The gated times are read relative to the host's speed at the moment
// they were taken (ref.go): every segment of a measured loop has
// reference ticks right before and right after it, and the time of each
// of its ops and units is divided by how much slower than nominal those
// ticks ran. A run then reports, for each distinct piece of the
// schedule, the median over its repetitions. The host's neighbours slow
// it in bursts of about a second and in spells of many minutes; both
// bend an op and the ticks around it alike, so the quotient stays put.
// A slowdown the program causes bends only the op, and shows in full.

// slowdowns returns how much slower than nominal the host ran around
// each segment: the mean of the ticks of the pauses on either side of
// it, over refNominalMS.
func (st *stretch) slowdowns(pauseTicks int) []float64 {
	out := make([]float64, len(st.segments))
	for s := range out {
		out[s] = mean(st.ticks[s*pauseTicks:(s+2)*pauseTicks]) / refNominalMS
	}
	return out
}

// steadyLatencies returns, for each distinct request of the schedule
// (ops whose index is equal modulo def.period do identical work), the
// median over its successful repetitions of latency over host slowdown.
// The gated latency percentiles are taken over these: they spread with
// the request mix, not with the host.
func steadyLatencies(st *stretch, def workloadDef, pauseTicks int) []float64 {
	slow := st.slowdowns(pauseTicks)
	byRequest := make([][]float64, def.period)
	for s, seg := range st.segments {
		for i := seg.lo; i < seg.lo+seg.n; i++ {
			if r := &st.ops[i]; r.err == nil {
				byRequest[r.index%def.period] = append(byRequest[r.index%def.period], millis(r.latency)/slow[s])
			}
		}
	}
	var steady []float64
	for _, lat := range byRequest {
		if len(lat) > 0 {
			steady = append(steady, median(lat))
		}
	}
	return steady
}

// steadyPerOp returns the wall and CPU milliseconds per op of one cycle
// of the schedule, relative to host slowdown. A segment is one unit of
// def.unit ops; its wall and CPU time run from its start to the
// completion of its last op and are divided by its slowdown. Segments
// that do identical work (def.period/def.unit kinds) are repetitions of
// each other: each kind reads its median, and the kinds add up to one
// cycle. A segment with a failed op is left out. A stretch too short to
// repeat every kind (smoke scale) reads its whole-loop averages.
func steadyPerOp(st *stretch, def workloadDef, pauseTicks int) (wallMS, cpuMS float64) {
	slow := st.slowdowns(pauseTicks)
	kinds := def.period / def.unit
	walls, cpus := make([][]float64, kinds), make([][]float64, kinds)
	for s, seg := range st.segments {
		var end, cpu time.Duration
		ok := seg.n == def.unit
		for i := seg.lo; i < seg.lo+seg.n; i++ {
			r := &st.ops[i]
			ok = ok && r.err == nil
			end, cpu = max(end, r.done), max(cpu, r.cpuDone)
		}
		if ok {
			kind := ((st.first + seg.lo) / def.unit) % kinds
			walls[kind] = append(walls[kind], millis(end-seg.start)/slow[s])
			cpus[kind] = append(cpus[kind], millis(cpu-seg.cpuStart)/slow[s])
		}
	}
	for kind := range walls {
		if len(walls[kind]) < 2 {
			if st.okCount == 0 {
				return 0, 0
			}
			whole := mean(st.ticks) / refNominalMS
			return millis(st.wall) / float64(st.okCount) / whole, millis(st.cpu) / float64(st.okCount) / whole
		}
		wallMS += median(walls[kind])
		cpuMS += median(cpus[kind])
	}
	return wallMS / float64(def.period), cpuMS / float64(def.period)
}

// latencies returns the successful ops' latencies in milliseconds.
func latencies(st *stretch) []float64 {
	var lat []float64
	for i := range st.ops {
		if r := &st.ops[i]; r.err == nil {
			lat = append(lat, millis(r.latency))
		}
	}
	return lat
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs fn reps times and returns the median wall-clock
// milliseconds and the heap megabytes one run allocated.
func timed(reps int, fn func() error) (ms, allocMB float64, err error) {
	var walls []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, millis(time.Since(start)))
		runtime.ReadMemStats(&after)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	return median(walls), allocMB, nil
}

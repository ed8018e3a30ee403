package main

// Host-speed calibration. On a shared host, other tenants' load slows
// this process for seconds to minutes at a time, and cache-bound work
// the most: a pure arithmetic loop barely moves while a loop of random
// reads and writes in a 1 MiB table slows at the same times as a
// monitoring pass. Medians over one run cannot remove a
// slowdown that lasts the whole run.
//
// So the benchmark times a fixed probe, that random-access loop, before
// and after every pass, and reports each pass's time scaled by
// probeRefMs / mean probe time: the time the pass would have taken on a
// host where the probe takes probeRefMs. The probe runs none of the
// repository's code, so a change to the program moves the scaled time as
// much as the raw one. Runs print the raw medians and the probe's median
// beside the scaled metrics.

import (
	"runtime"
	"time"
)

const (
	// probeRefMs only sets the scale of the calibrated numbers. It was
	// taken from an earlier form of the probe on a quiet stretch of a
	// 2-vCPU Xeon host.
	probeRefMs = 1.35
	probeBits  = 17
	probeWords = 1 << probeBits // 1 MiB: inside one core's L2, far above its L1
	probeSteps = 600_000
	// probeReps is how many times one probe runs its loop; the probe's
	// time is the median, so an interrupt or a descheduling during one
	// loop does not move it.
	probeReps = 7
)

// probe is the host-speed probe's table and the times it has measured.
type probe struct {
	table []uint64
	sink  uint64
	ms    []float64
	// gcs and gcPauseNs count the collections scale forced, which the
	// traced run leaves out of its Go runtime metrics.
	gcs       uint32
	gcPauseNs uint64
}

func newProbe() *probe {
	p := &probe{table: make([]uint64, probeWords)}
	for i := range p.table {
		p.table[i] = uint64(i)
	}
	p.loop() // warm the table into the cache
	return p
}

// loop is the probe's work: dependent random reads and writes across
// the table, driven by a linear congruential generator.
func (p *probe) loop() {
	x, s := uint64(1), p.sink
	for i := 0; i < probeSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := x >> (64 - probeBits)
		s += p.table[j]
		p.table[(j+s)&(probeWords-1)] = s
	}
	p.sink = s
}

// mark times the probe once, opening the first of a run of timed
// units; scale then closes each unit.
func (p *probe) mark() { p.time() }

// scale times the probe once and returns the factor that converts the
// time of the unit since the previous probe to the reference host
// speed: probeRefMs over the mean of the two probes around the unit.
func (p *probe) scale() float64 {
	prev := p.ms[len(p.ms)-1]
	return 2 * probeRefMs / (prev + p.time())
}

// time runs and times the probe. It collects garbage first, so that the
// probe does not share the host with the collector and the next timed
// unit starts from a settled heap.
func (p *probe) time() float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.gcs += after.NumGC - before.NumGC
	p.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
	reps := make([]float64, probeReps)
	for i := range reps {
		t0 := time.Now()
		p.loop()
		reps[i] = float64(time.Since(t0)) / 1e6
	}
	ms := median(reps)
	p.ms = append(p.ms, ms)
	return ms
}

// medianMs is the median probe time so far.
func (p *probe) medianMs() float64 {
	return median(append([]float64(nil), p.ms...))
}

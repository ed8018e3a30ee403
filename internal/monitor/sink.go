package monitor

import (
	"io"

	"localdrf/internal/obs"
	"localdrf/internal/race"
)

// Sink is the method set a sequential *Monitor and a sharded *Pipeline
// share: the checker a stream is fed into. Consumers that let the user
// pick the shard count (racemon, racemond) drive either through it.
type Sink interface {
	Step(Event)
	StepBatch([]Event)
	FeedBatch(BatchSource) error
	Events() uint64
	RAStats() RAStats
	Predicate() Predicate
	WindowK() int
	WindowStats() WindowStats
	Snapshot(io.Writer) error
	SnapshotWithReader(io.Writer, ReaderCheckpoint) error
	Obs() *obs.Registry
	Stats() obs.Snapshot
	// Finish returns the canonically sorted report set. A pipeline must
	// not be fed afterwards.
	Finish() []race.Report
	// Abort releases the sink without a result (a pipeline's back-end
	// goroutines exit; a monitor holds none).
	Abort()
}

var (
	_ Sink = (*Monitor)(nil)
	_ Sink = (*Pipeline)(nil)
)

// NewSink returns a sequential Monitor configured by cfg when cfg.Shards
// ≤ 1, and NewPipeline(nthreads, decls, cfg) otherwise. The report set
// is the same either way.
func NewSink(nthreads int, decls []LocDecl, cfg PipelineConfig) Sink {
	if cfg.Shards > 1 {
		return NewPipeline(nthreads, decls, cfg)
	}
	m := New(nthreads, decls)
	applyGC(m, cfg)
	if cfg.Predicate != PredHB {
		m.SetPredicate(cfg.Predicate, cfg.WindowK)
	}
	m.SetStaticFilter(cfg.StaticFilter)
	return m
}

// Sink resumes the checkpoint as a sequential Monitor when cfg.Shards ≤
// 1 and as Pipeline(cfg) otherwise. As with Pipeline, a zero GC
// configuration continues the snapshot's recorded one, and the
// snapshot's predicate is authoritative. Single use.
func (s *Snapshot) Sink(cfg PipelineConfig) Sink {
	if cfg.Shards > 1 {
		return s.Pipeline(cfg)
	}
	m := s.Monitor()
	applyGC(m, cfg)
	return m
}

// Finish returns the report set (Reports); the monitor stays usable.
func (m *Monitor) Finish() []race.Report { return m.Reports() }

// Abort is a no-op: a monitor owns no goroutines or rings.
func (m *Monitor) Abort() {}

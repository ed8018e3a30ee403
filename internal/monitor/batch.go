package monitor

// Streaming ingestion: the pull side of the monitor. A BatchSource
// yields events a batch at a time, so a trace can be monitored without
// ever materialising it, at one call per batch rather than per event;
// the wire-format decoder (whose frames are natural batches), schedgen's
// batched streaming, and the parallel pipeline all move events this way.
// The push side is Step and StepBatch.

// BatchSource is a pull-based stream of monitor events delivered in
// batches. NextBatch appends the next batch to dst (pass a reusable
// buffer, typically dst[:0] of the previous result) and returns the
// extended slice; ok=false at the end of the stream, or an error (after
// which the stream must not be read further).
type BatchSource interface {
	NextBatch(dst []Event) ([]Event, bool, error)
}

// StepBatch consumes a batch of events in order — equivalent to calling
// Step on each.
func (m *Monitor) StepBatch(events []Event) {
	for i := range events {
		m.Step(events[i])
	}
}

// FeedBatch consumes src to the end of the stream, stepping the monitor
// on every event of every batch. On a source error, monitoring stops and
// the error is returned; the reports accumulated so far remain readable.
func (m *Monitor) FeedBatch(src BatchSource) error {
	return feedBatches(src, m.StepBatch)
}

// feedBatches drains a batched source into step, reusing one buffer —
// the shared pump behind Monitor.FeedBatch and Pipeline.FeedBatch.
func feedBatches(src BatchSource, step func([]Event)) error {
	buf := make([]Event, 0, defaultPipelineBatch)
	for {
		batch, ok, err := src.NextBatch(buf[:0])
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		step(batch)
		buf = batch
	}
}

// SliceSource adapts an in-memory event slice to the BatchSource
// interface.
type SliceSource struct {
	Events []Event
	next   int
}

// NextBatch yields up to cap(dst) (at least one batch's worth of)
// remaining slice elements.
func (s *SliceSource) NextBatch(dst []Event) ([]Event, bool, error) {
	if s.next >= len(s.Events) {
		return dst, false, nil
	}
	n := cap(dst) - len(dst)
	if n < 1 {
		n = defaultPipelineBatch
	}
	if rest := len(s.Events) - s.next; n > rest {
		n = rest
	}
	dst = append(dst, s.Events[s.next:s.next+n]...)
	s.next += n
	return dst, true, nil
}

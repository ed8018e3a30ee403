package monitor

// Parallel wire pre-parse: N workers decode v2 frames concurrently, one
// ordering sequencer consumes them in stream order.
//
// The v2 format's frames are self-delimiting (a length prefix, then a
// counted batch of tag+varint events), so the expensive byte work —
// tag dispatch, varint decoding, structural validation — needs nothing
// from neighbouring frames and parallelises perfectly. What does NOT
// parallelise naively is the delta context: thread ids, locations and
// RA timestamps are encoded relative to prevThread / prevLoc[thread] /
// prevNum[loc], which thread through the whole stream. Decoding is
// therefore split in two:
//
//   - parse (context-free, parallel): each worker turns its frame's
//     bytes into relative events — kind, thread delta, location delta,
//     timestamp delta — catching every malformation that is visible
//     without context (bad varints, unknown kinds, trailing bytes).
//
//   - resolve (context-bearing, pipelined): a small HANDOFF RECORD
//     carrying the delta context (prevThread, prevLoc, prevNum, and the
//     halted-thread set for the halt-promise check) travels from the
//     worker of frame i to the worker of frame i+1 through a ring of
//     channels. On receiving it a worker rebases its already-parsed
//     relative events to absolute ones, validates bounds and
//     kind-versus-declaration consistency, and passes the updated
//     context on. Resolution is a few adds and compares per event, so
//     the chain's serial section is a fraction of the decode cost — the
//     varint crunching it waits on ran in parallel.
//
// Frames are dispatched to workers round-robin and collected round-robin
// (engine.FanRing), so the sequencer observes frames — and therefore
// events, errors, and halt violations — in exactly the order the
// sequential TraceReader would produce them. The sequencer side is
// ParallelTraceReader.NextBatch, a drop-in BatchSource: feed it to a
// Monitor for sequential checking or to a Pipeline, whose sync front-end
// then receives pre-decoded batches and spends its serial budget only on
// clock joins and routing.
//
// Memory is bounded: payload and event buffers recycle through free
// queues sized to the ring depths, exactly like the pipeline's record
// batches. Text traces (and parsers < 2) fall back to the sequential
// TraceReader transparently. Checkpoint/resume is not supported through
// the parallel reader — take checkpoints with the sequential reader
// (racemon does this automatically).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"localdrf/internal/engine"
	"localdrf/internal/obs"
	"localdrf/internal/race"
	"localdrf/internal/ts"
)

const (
	// parseRingDepth is the per-worker depth of the job and result rings:
	// enough for a worker to decode one frame while its previous result
	// waits for collection, without unbounded run-ahead.
	parseRingDepth = 2
	// maxParsers caps the worker count a caller can request.
	maxParsers = 128
)

// errParseAborted marks the results of frames after the first failing
// one. The sequencer consumes results in stream order and stops at the
// first error, so this sentinel is never surfaced to callers.
var errParseAborted = errors.New("monitor: trace parse aborted by earlier frame error")

// parseJob is one raw frame on its way to a worker. A job with err set
// carries a producer-side read error to the sequencer in stream order.
type parseJob struct {
	payload []byte
	err     error
}

// parsedFrame is one decoded frame on its way to the sequencer.
type parsedFrame struct {
	events []Event
	err    error
}

// parseCtx is the handoff record chained from each frame's worker to the
// next frame's worker: the v2 delta context and the halted-thread set as
// of the frame boundary. Exactly one frame owns it at a time, so it is
// mutated in place. poisoned marks the chain dead after a frame fails to
// resolve (its successors cannot be decoded meaningfully).
type parseCtx struct {
	prevThread int32
	prevLoc    []int32
	prevNum    []int64
	halted     []bool
	poisoned   bool
}

// relEvent is one structurally parsed but unresolved event: everything
// the tag and varints say, relative to a context this worker does not
// yet hold.
type relEvent struct {
	dThread int64 // thread delta (when hasDT)
	dLoc    int64 // location delta
	dNum    int64 // RA timestamp numerator delta
	den     uint64
	kind    Kind
	hasDT   bool
}

// ParallelTraceReader decodes a wire-format trace with parsers worker
// goroutines and yields validated events in stream order — a drop-in
// BatchSource with the same event sequence, validation and error
// behaviour as the sequential TraceReader. Create one with
// NewParallelTraceReader and Close it when done (NextBatch closes
// automatically at end of trace or on error; Close is then a no-op).
type ParallelTraceReader struct {
	seq *TraceReader // non-nil: sequential fallback (text, parsers < 2)

	hdr         Header
	in          *engine.FanRing[parseJob]
	out         *engine.FanRing[parsedFrame]
	payloadFree *engine.BatchQueue[[]byte]
	eventsFree  *engine.BatchQueue[[]Event]
	ctxCh       []chan *parseCtx
	wg          sync.WaitGroup
	closed      bool
	done        bool
	err         error
	// Optional telemetry (NewParallelTraceReaderObs): per-worker frame
	// and payload-byte vectors, plus the time the sequencer spent
	// blocked waiting for the next in-order frame. Workers publish one
	// atomic add per frame — amortised over up to 64k events — so the
	// decode hot path is untouched. All nil when not attached.
	obsFrames *obs.Vec
	obsBytes  *obs.Vec
	obsWaitNs *obs.Counter
}

// NewParallelTraceReader sniffs and validates the trace header of r and
// starts parsers decode workers. Text traces — and parsers < 2 — are
// handled by a sequential TraceReader behind the same interface.
func NewParallelTraceReader(r io.Reader, parsers int) (*ParallelTraceReader, error) {
	return NewParallelTraceReaderObs(r, parsers, nil)
}

// NewParallelTraceReaderObs is NewParallelTraceReader with decode
// telemetry registered in reg (parse.frames, parse.bytes,
// parse.sequencer_wait_ns — typically the registry of the monitor or
// pipeline consuming the events, so one snapshot covers the whole
// ingest path). A nil reg, or the sequential fallback, records nothing.
func NewParallelTraceReaderObs(r io.Reader, parsers int, reg *obs.Registry) (*ParallelTraceReader, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	if parsers < 2 || tr.text {
		return &ParallelTraceReader{seq: tr, hdr: tr.hdr}, nil
	}
	if parsers > maxParsers {
		parsers = maxParsers
	}
	nbuf := parsers*2*parseRingDepth + 2
	pr := &ParallelTraceReader{
		hdr:         tr.hdr,
		in:          engine.NewFanRing[parseJob](parsers, parseRingDepth),
		out:         engine.NewFanRing[parsedFrame](parsers, parseRingDepth),
		payloadFree: engine.NewBatchQueue[[]byte](nbuf),
		eventsFree:  engine.NewBatchQueue[[]Event](nbuf),
		ctxCh:       make([]chan *parseCtx, parsers),
	}
	if reg != nil {
		pr.obsFrames = reg.Vec("parse.frames", parsers)
		pr.obsBytes = reg.Vec("parse.bytes", parsers)
		pr.obsWaitNs = reg.Counter("parse.sequencer_wait_ns")
	}
	for i := 0; i < nbuf; i++ {
		pr.payloadFree.Put(nil)
		pr.eventsFree.Put(nil)
	}
	for i := range pr.ctxCh {
		// Capacity 1 suffices: the chain strictly alternates one send to a
		// worker's channel with that worker's receive (context i+1 cannot
		// be produced before context i was consumed).
		pr.ctxCh[i] = make(chan *parseCtx, 1)
	}
	pr.ctxCh[0] <- &parseCtx{
		prevLoc: make([]int32, tr.hdr.Threads),
		prevNum: make([]int64, len(tr.hdr.Decls)),
	}
	pr.wg.Add(parsers + 1)
	go pr.produce(tr)
	for i := 0; i < parsers; i++ {
		go pr.work(i)
	}
	return pr, nil
}

// Header returns the decoded trace header.
func (pr *ParallelTraceReader) Header() Header { return pr.hdr }

// NewMonitor returns a monitor sized for the trace's header.
func (pr *ParallelTraceReader) NewMonitor() *Monitor { return New(pr.hdr.Threads, pr.hdr.Decls) }

// NextBatch appends the next frame's events to dst, in stream order.
// ok=false with nothing appended means the end of the trace.
func (pr *ParallelTraceReader) NextBatch(dst []Event) ([]Event, bool, error) {
	if pr.seq != nil {
		return pr.seq.NextBatch(dst)
	}
	if pr.err != nil {
		return dst, false, pr.err
	}
	if pr.done {
		return dst, false, nil
	}
	var start time.Time
	if pr.obsWaitNs != nil {
		start = time.Now()
	}
	res, ok := pr.out.Collect()
	if pr.obsWaitNs != nil {
		pr.obsWaitNs.Add(uint64(time.Since(start)))
	}
	if !ok {
		pr.done = true
		pr.Close()
		return dst, false, nil
	}
	if res.err != nil {
		pr.err = res.err
		pr.Close()
		return dst, false, res.err
	}
	dst = append(dst, res.events...)
	pr.eventsFree.Put(res.events[:0])
	return dst, true, nil
}

// Close tears the worker fleet down (idempotent, no-op for the
// sequential fallback). After a clean end of trace or an error it
// returns immediately; called mid-stream it interrupts the workers at
// their next queue operation.
func (pr *ParallelTraceReader) Close() {
	if pr.seq != nil || pr.closed {
		return
	}
	pr.closed = true
	pr.in.Close()
	pr.out.Close()
	pr.payloadFree.Close()
	pr.eventsFree.Close()
	pr.wg.Wait()
}

// produce reads raw self-delimiting frames off the trace and dispatches
// them to the workers round-robin. Read errors are dispatched as jobs so
// the sequencer surfaces them in stream position.
func (pr *ParallelTraceReader) produce(tr *TraceReader) {
	defer pr.wg.Done()
	defer pr.in.Close()
	for {
		payloadLen, err := binary.ReadUvarint(&tr.cr)
		if err != nil {
			if err != io.EOF {
				pr.in.Dispatch(parseJob{err: fmt.Errorf("monitor: trace frame length: %w", err)})
			}
			return // clean end of trace
		}
		if payloadLen == 0 || payloadLen > maxFrameBytes {
			pr.in.Dispatch(parseJob{err: fmt.Errorf("monitor: trace frame: payload length %d out of range (1,%d]", payloadLen, maxFrameBytes)})
			return
		}
		buf, ok := pr.payloadFree.Get()
		if !ok {
			return
		}
		if uint64(cap(buf)) < payloadLen {
			buf = make([]byte, payloadLen)
		}
		buf = buf[:payloadLen]
		if _, err := io.ReadFull(&tr.cr, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			pr.in.Dispatch(parseJob{err: fmt.Errorf("monitor: trace frame: %w", err)})
			return
		}
		if !pr.in.Dispatch(parseJob{payload: buf}) {
			return
		}
	}
}

// work is one decode worker: structural parse without the context, then
// resolve once the handoff record arrives, then pass the context on.
// The context is forwarded before the result is enqueued, so an aborted
// sequencer can never strand a successor waiting on the chain.
func (pr *ParallelTraceReader) work(id int) {
	defer pr.wg.Done()
	myIn, myOut := pr.in.Worker(id), pr.out.Worker(id)
	defer myOut.Close()
	next := pr.ctxCh[(id+1)%len(pr.ctxCh)]
	var rel []relEvent
	for {
		job, ok := myIn.Get()
		if !ok {
			return
		}
		if pr.obsFrames != nil && job.payload != nil {
			pr.obsFrames.Add(id, 1)
			pr.obsBytes.Add(id, uint64(len(job.payload)))
		}
		var structErr error
		if job.err == nil {
			rel, structErr = parseRelFrame(job.payload, rel[:0])
		}
		ctx := <-pr.ctxCh[id]
		var res parsedFrame
		switch {
		case ctx.poisoned:
			res.err = errParseAborted
		case job.err != nil:
			res.err = job.err
			ctx.poisoned = true
		case structErr != nil:
			res.err = structErr
			ctx.poisoned = true
		default:
			res.events, res.err = pr.resolve(rel, ctx)
			if res.err != nil {
				ctx.poisoned = true
				if res.events != nil {
					pr.eventsFree.Put(res.events[:0])
					res.events = nil
				}
			}
		}
		next <- ctx
		if job.payload != nil {
			pr.payloadFree.Put(job.payload[:0])
		}
		if !myOut.Put(res) {
			return
		}
	}
}

// parseRelFrame structurally parses one frame payload into relative
// events, validating everything visible without the delta context.
func parseRelFrame(p []byte, rel []relEvent) ([]relEvent, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 || count == 0 || count > maxFrameEvents {
		return rel, fmt.Errorf("monitor: trace frame: bad event count")
	}
	pos := n
	for i := uint64(0); i < count; i++ {
		if pos >= len(p) {
			return rel, fmt.Errorf("monitor: trace frame: truncated event (missing tag)")
		}
		tag := p[pos]
		pos++
		r := relEvent{kind: Kind(tag & 7)}
		if r.kind > KindHalt {
			return rel, fmt.Errorf("monitor: trace event: unknown kind %d", r.kind)
		}
		if tag&(1<<3) != 0 {
			d, n := binary.Varint(p[pos:])
			if n <= 0 {
				return rel, fmt.Errorf("monitor: trace event: bad thread delta varint")
			}
			pos += n
			r.hasDT, r.dThread = true, d
		}
		locField := tag >> 4
		if r.kind == KindHalt {
			if locField != 0 {
				return rel, fmt.Errorf("monitor: trace event: halt with nonzero location field")
			}
			rel = append(rel, r)
			continue
		}
		r.dLoc = int64(locField) - 7
		if locField == 15 {
			d, n := binary.Varint(p[pos:])
			if n <= 0 {
				return rel, fmt.Errorf("monitor: trace event: bad location delta varint")
			}
			pos += n
			r.dLoc = d
		}
		if r.kind == ReadRA || r.kind == WriteRA {
			dnum, n := binary.Varint(p[pos:])
			if n <= 0 {
				return rel, fmt.Errorf("monitor: trace event: bad timestamp delta varint")
			}
			pos += n
			den, n := binary.Uvarint(p[pos:])
			if n <= 0 {
				return rel, fmt.Errorf("monitor: trace event: bad timestamp denominator varint")
			}
			pos += n
			r.dNum, r.den = dnum, den
		}
		rel = append(rel, r)
	}
	if pos != len(p) {
		return rel, fmt.Errorf("monitor: trace frame: %d trailing bytes after %d events", len(p)-pos, count)
	}
	return rel, nil
}

// resolve rebases a frame's relative events onto the handoff context,
// performing the context-dependent half of validation (bounds,
// kind-versus-declaration, timestamp range, the halt promise) — the
// exact checks TraceReader.decodeV2Event performs, at the exact stream
// positions.
func (pr *ParallelTraceReader) resolve(rel []relEvent, ctx *parseCtx) ([]Event, error) {
	buf, ok := pr.eventsFree.Get()
	if !ok {
		buf = make([]Event, 0, len(rel))
	}
	hdr := pr.hdr
	for i := range rel {
		r := &rel[i]
		e := Event{Kind: r.kind}
		thread := int64(ctx.prevThread)
		if r.hasDT {
			thread += r.dThread
		}
		if thread < 0 || thread >= int64(hdr.Threads) {
			return buf, fmt.Errorf("monitor: trace event: thread %d out of range [0,%d)", thread, hdr.Threads)
		}
		e.Thread = int32(thread)
		ctx.prevThread = e.Thread
		if r.kind != KindHalt {
			loc := int64(ctx.prevLoc[e.Thread]) + r.dLoc
			if loc < 0 || loc >= int64(len(hdr.Decls)) {
				return buf, fmt.Errorf("monitor: trace event: location index %d out of range [0,%d)", loc, len(hdr.Decls))
			}
			e.Loc = int32(loc)
			ctx.prevLoc[e.Thread] = e.Loc
			if r.kind == ReadRA || r.kind == WriteRA {
				if r.den == 0 || r.den > uint64(math.MaxInt64) {
					return buf, fmt.Errorf("monitor: trace event timestamp: denominator %d out of range", r.den)
				}
				num := ctx.prevNum[e.Loc] + r.dNum
				ctx.prevNum[e.Loc] = num
				e.Time = ts.New(num, int64(r.den))
			}
			if err := validateEvent(hdr, e); err != nil {
				return buf, err
			}
		}
		if err := checkHalt(&ctx.halted, hdr.Threads, e); err != nil {
			return buf, err
		}
		buf = append(buf, e)
	}
	return buf, nil
}

// ReadRacesParallel monitors a wire-format trace with the fully parallel
// front-end — parsers decode workers feeding the pipeline's sync
// sequencer, race checking split across cfg.Shards back-ends — and
// returns the deduplicated reports and retention statistics,
// byte-identical to a sequential ReadRaces pass.
func ReadRacesParallel(r io.Reader, parsers int, cfg PipelineConfig) ([]race.Report, RAStats, error) {
	pr, err := NewParallelTraceReader(r, parsers)
	if err != nil {
		return nil, RAStats{}, err
	}
	defer pr.Close()
	p := NewPipeline(pr.hdr.Threads, pr.hdr.Decls, cfg)
	if err := p.FeedBatch(pr); err != nil {
		p.Abort()
		return nil, RAStats{}, err
	}
	reports := p.Finish()
	return reports, p.RAStats(), nil
}

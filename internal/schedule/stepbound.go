package schedule

import (
	"sync"

	"bfpp/internal/core"
)

// This file implements the schedule-side half of the analytic step-time
// bounds (BaPipe-style search pruning, see internal/analytic): a
// closed-form replay that prices a plan's device programs without
// constructing them and without running the discrete-event simulator.
//
// The replay mirrors the engine's execution model exactly. The engine maps
// every operation onto per-device in-order streams: compute operations
// always ride the device's compute stream; pipeline transfers ride a
// separate per-device pp stream when the implementation overlaps them
// (inline on the compute stream otherwise, paying the blocking stall); and
// data-parallel restores/reductions ride a separate dp stream when
// overlapped. Every task obeys the same recurrence the DES evaluates:
// start = max(stream frontier, latest dependency finish), end = start +
// duration. Replaying that recurrence over the ops the generator's own
// emitter writes (the same emit method Generate builds the Schedule from,
// written into pooled scratch instead of a Program) with one cursor per
// stream reproduces the DES makespan bit for bit — for non-overlapped and
// overlapped plans alike — which is what lets the search treat the bound
// as the exact simulated time and skip the simulation entirely. A
// schedule's op order is therefore written exactly once. A generator whose
// op order comes out of a whole-plan pass (the list-scheduled V-schedule)
// has no emitter; its checked program, which Cached has already memoized
// for the engine, is replayed instead, so every generator is priced
// exactly.

// StepCosts holds the engine's derived per-operation durations for one
// (cluster, model, plan) configuration, in seconds. engine.DeriveCosts is
// the single producer, so analytic bounds price plans with exactly the
// constants the simulator charges.
type StepCosts struct {
	// Fwd and Bwd are the per-stage per-micro-batch compute durations
	// (kernel launch included).
	Fwd, Bwd float64
	// Transfer is the pipeline-parallel transfer wire time.
	Transfer float64
	// PPStall is the extra per-message blocking stall paid when transfers
	// ride the compute stream (non-overlapped implementations).
	PPStall float64
	// Reduce is the per-stage gradient reduction time (zero when DP == 1).
	Reduce float64
	// Restore is the per-stage DP-FS weight reconstruction time.
	Restore float64
	// Opt is the optimizer step time.
	Opt float64
}

// NonOverlapped reports whether every operation of the plan rides the
// per-device compute streams: the engine creates a separate pipeline
// stream only for overlapped pipelined plans with PP > 1, and a separate
// data-parallel stream only for overlapped plans with data-parallel work.
func NonOverlapped(p core.Plan) bool {
	pp := p.OverlapPP && p.Method.Pipelined() && p.PP > 1
	dp := p.OverlapDP && (p.DP > 1 || p.Sharding == core.DPFS)
	return !pp && !dp
}

// replayScratch pools the replay's working storage — the emitted op
// sequences, the per-(stage, micro) end-time tables and the per-device
// cursor state — so pricing a candidate allocates nothing in the steady
// state. The bound runs once per enumerated candidate on the sweep's hot
// path (the very spot the PR 3 ROADMAP note predicted), which is why the
// scratch is pooled like the engine's builder scratch.
type replayScratch struct {
	ops   []Op  // emitted per-rank sequences, concatenated
	opOff []int // rank r's ops are ops[opOff[r]:opOff[r+1]]
	owner []int

	fwdEnd, bwdEnd, inF, inB []float64
	tComp, tPP, tDP, maxRed  []float64
	kComp, kPP, kDP          []int
	reduceDone, reduceSeen   []int
	restoreSeenC             []int
	optDone                  []bool
	restoreIdxC, restoreIdxD []int
	bwdSeenD                 []bool
	restoreEnd               [][]float64
	consumers                [][]int
}

var replayScratchPool = sync.Pool{New: func() any { return &replayScratch{} }}

// growScratch resizes a reusable buffer to length n, reallocating only when
// the retained capacity is too small. Contents are unspecified; callers
// clear what they need.
func growScratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// initReplay emits every rank's ops into sc and resets the replay's cursor
// state, leaving sc ready for runReplay. It is split from the execution so
// a prefix replay can be checkpointed (the emitted ops and cursor state are
// the complete recurrence state) and resumed per candidate.
func initReplay(sc *replayScratch, p core.Plan, emit emitFunc) {
	nStages := p.NumStages()
	nm := p.NumMicro
	nDev := numDevices(p)
	send := p.Method.Pipelined() && p.PP > 1
	dpStream := p.OverlapDP && (p.DP > 1 || p.Sharding == core.DPFS)

	if send {
		owner := growScratch(&sc.owner, nStages)
		for s := range owner {
			owner[s] = p.StageDevice(s)
		}
	}

	emitOps(sc, p, emit)

	nk := nStages * nm
	// Compute-op and inbound-transfer finish times per (stage, micro);
	// negative = not yet produced. inF feeds Forward(stage, micro), inB
	// feeds Backward.
	fwdEnd := growScratch(&sc.fwdEnd, nk)
	bwdEnd := growScratch(&sc.bwdEnd, nk)
	inF := growScratch(&sc.inF, nk)
	inB := growScratch(&sc.inB, nk)
	for i := 0; i < nk; i++ {
		fwdEnd[i], bwdEnd[i], inF[i], inB[i] = -1, -1, -1, -1
	}

	tComp := growScratch(&sc.tComp, nDev) // per-device stream frontiers
	tPP := growScratch(&sc.tPP, nDev)
	tDP := growScratch(&sc.tDP, nDev)
	kComp := growScratch(&sc.kComp, nDev) // per-device per-stream cursors
	kPP := growScratch(&sc.kPP, nDev)
	kDP := growScratch(&sc.kDP, nDev)
	optDone := growScratch(&sc.optDone, nDev)
	maxReduceEnd := growScratch(&sc.maxRed, nDev)
	reduceDone := growScratch(&sc.reduceDone, nDev) // reduces executed by the dp cursor
	reduceSeen := growScratch(&sc.reduceSeen, nDev) // reduces passed by the compute cursor
	for r := 0; r < nDev; r++ {
		tComp[r], tPP[r], tDP[r], maxReduceEnd[r] = 0, 0, 0, 0
		kComp[r], kPP[r], kDP[r] = 0, 0, 0
		reduceDone[r], reduceSeen[r] = 0, 0
		optDone[r] = false
	}

	// Restore bookkeeping, needed only when restores ride a separate dp
	// stream: dependencies are then cross-stream instead of being covered
	// by the compute frontier. Restores are identified by their per-device
	// creation index; stages belong to exactly one device, so the
	// (stage, micro) -> latest-restore tables can be shared across devices.
	// The compute cursor keeps its own table (a compute op's restore
	// dependency is fixed by the restores preceding it in program order,
	// which is what the cursor's scan position models) and the dp cursor
	// another, because the cursors advance independently.
	if dpStream {
		restoreIdxC := growScratch(&sc.restoreIdxC, nStages*(nm+1))
		restoreIdxD := growScratch(&sc.restoreIdxD, nStages*(nm+1))
		for i := range restoreIdxC {
			restoreIdxC[i], restoreIdxD[i] = -1, -1
		}
		restoreEnd := growScratch(&sc.restoreEnd, nDev)
		consumers := growScratch(&sc.consumers, nDev)
		restoreSeenC := growScratch(&sc.restoreSeenC, nDev)
		bwdSeenD := growScratch(&sc.bwdSeenD, nk)
		for r := 0; r < nDev; r++ {
			restoreEnd[r] = restoreEnd[r][:0]
			consumers[r] = consumers[r][:0]
			restoreSeenC[r] = 0
		}
		for i := range bwdSeenD {
			bwdSeenD[i] = false
		}
	}
}

// emitOps writes every rank's program once, straight into sc's pooled op
// buffer; the three cursors share the emitted ops.
func emitOps(sc *replayScratch, p core.Plan, emit emitFunc) {
	nDev := numDevices(p)
	opOff := growScratch(&sc.opOff, nDev+1)
	b := progBuilder{p: p, prog: sc.ops[:0]}
	for r := 0; r < nDev; r++ {
		opOff[r] = len(b.prog)
		emit(&b, r)
	}
	opOff[nDev] = len(b.prog)
	sc.ops = b.prog
}

// runReplay advances the replay state in sc as far as the dataflow allows:
// the three per-device stream cursors execute their ops under the same
// recurrence the DES evaluates (start = max(stream frontier, latest
// dependency finish)), which is a pure dataflow fixpoint — the final
// frontiers are independent of drain order, so a run split across a
// checkpoint is bit-identical to an uninterrupted one. With withOpt false
// the trailing optimizer step is withheld (prefix runs stop at the emitted
// ops; the resumed run issues it). It returns false if the sequences
// deadlock before completing.
func runReplay(sc *replayScratch, p core.Plan, c StepCosts, withOpt bool) bool {
	nStages := p.NumStages()
	nm := p.NumMicro
	nDev := numDevices(p)
	send := p.Method.Pipelined() && p.PP > 1
	// Stream layout, exactly as the engine's builder decides it.
	ppStream := p.OverlapPP && send
	dpStream := p.OverlapDP && (p.DP > 1 || p.Sharding == core.DPFS)
	x := c.Transfer
	if !ppStream {
		x += c.PPStall // transfers ride the compute stream, paying the stall
	}

	owner := sc.owner
	cross := func(a, b int) bool { return send && owner[a] != owner[b] }
	opOff, ops := sc.opOff, sc.ops
	idx := func(stage, micro int) int { return stage*nm + micro }
	fwdEnd, bwdEnd, inF, inB := sc.fwdEnd, sc.bwdEnd, sc.inF, sc.inB
	tComp, tPP, tDP := sc.tComp, sc.tPP, sc.tDP
	kComp, kPP, kDP := sc.kComp, sc.kPP, sc.kDP
	optDone := sc.optDone
	maxReduceEnd := sc.maxRed
	reduceDone, reduceSeen := sc.reduceDone, sc.reduceSeen
	restoreIdxC, restoreIdxD := sc.restoreIdxC, sc.restoreIdxD
	restoreEnd, consumers := sc.restoreEnd, sc.consumers
	restoreSeenC, bwdSeenD := sc.restoreSeenC, sc.bwdSeenD
	// lastRestore mirrors the builder's lastRestoreFor: the restore for the
	// exact (stage, micro) if one exists, else the per-batch restore
	// (micro -1, stored at slot 0).
	lastRestore := func(tbl []int, stage, micro int) int {
		if i := tbl[stage*(nm+1)+micro+1]; i >= 0 {
			return i
		}
		return tbl[stage*(nm+1)]
	}

	// compDrain advances rank r's compute stream as far as cross-stream
	// dependencies allow, exactly like the DES drains an in-order stream.
	compDrain := func(r int) bool {
		progressed := false
		base, n := opOff[r], opOff[r+1]-opOff[r]
		for kComp[r] < n {
			op := ops[base+kComp[r]]
			switch op.Kind {
			case Forward, Backward:
				start := tComp[r]
				if dpStream {
					if ri := lastRestore(restoreIdxC, op.Stage, op.Micro); ri >= 0 {
						if ri >= len(restoreEnd[r]) {
							return progressed // restore not yet executed
						}
						if e := restoreEnd[r][ri]; e > start {
							start = e
						}
					}
				}
				if op.Kind == Forward {
					if op.Stage > 0 && cross(op.Stage-1, op.Stage) {
						in := inF[idx(op.Stage, op.Micro)]
						if in < 0 {
							return progressed // inbound transfer pending
						}
						if in > start {
							start = in
						}
					}
					end := start + c.Fwd
					tComp[r] = end
					fwdEnd[idx(op.Stage, op.Micro)] = end
					if op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) && !ppStream {
						// Inline send: the transfer occupies the compute
						// stream right after its producer.
						tComp[r] = end + x
						inF[idx(op.Stage+1, op.Micro)] = tComp[r]
					}
				} else {
					if op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) {
						in := inB[idx(op.Stage, op.Micro)]
						if in < 0 {
							return progressed
						}
						if in > start {
							start = in
						}
					}
					end := start + c.Bwd
					tComp[r] = end
					bwdEnd[idx(op.Stage, op.Micro)] = end
					if op.Stage > 0 && cross(op.Stage-1, op.Stage) && !ppStream {
						tComp[r] = end + x
						inB[idx(op.Stage-1, op.Micro)] = tComp[r]
					}
				}
			case Restore:
				if dpStream {
					// Creation-order bookkeeping only: later compute ops of
					// this stage depend on this restore's index.
					restoreIdxC[op.Stage*(nm+1)+op.Micro+1] = restoreSeenC[r]
					restoreSeenC[r]++
				} else {
					// Rides this stream; same-stream dependencies resolve
					// before the frontier, so it just occupies the stream.
					tComp[r] += c.Restore
				}
			case Reduce:
				if dpStream {
					reduceSeen[r]++
				} else {
					tComp[r] += c.Reduce
				}
			}
			kComp[r]++
			progressed = true
		}
		if withOpt && !optDone[r] {
			// Trailing optimizer step: depends on every reduction of the
			// device (all of which precede it in program order).
			if dpStream && reduceDone[r] < reduceSeen[r] {
				return progressed
			}
			start := tComp[r]
			if maxReduceEnd[r] > start {
				start = maxReduceEnd[r]
			}
			tComp[r] = start + c.Opt
			optDone[r] = true
			progressed = true
		}
		return progressed
	}

	// ppDrain advances rank r's pipeline-transfer stream: one send task per
	// cross-device boundary crossing, enqueued in program order right after
	// its producing compute op, depending on it.
	ppDrain := func(r int) bool {
		progressed := false
		base, n := opOff[r], opOff[r+1]-opOff[r]
		for kPP[r] < n {
			op := ops[base+kPP[r]]
			if op.Kind == Forward && op.Stage < nStages-1 && cross(op.Stage, op.Stage+1) {
				e := fwdEnd[idx(op.Stage, op.Micro)]
				if e < 0 {
					return progressed // producer not yet executed
				}
				start := tPP[r]
				if e > start {
					start = e
				}
				end := start + x
				tPP[r] = end
				inF[idx(op.Stage+1, op.Micro)] = end
			} else if op.Kind == Backward && op.Stage > 0 && cross(op.Stage-1, op.Stage) {
				e := bwdEnd[idx(op.Stage, op.Micro)]
				if e < 0 {
					return progressed
				}
				start := tPP[r]
				if e > start {
					start = e
				}
				end := start + x
				tPP[r] = end
				inB[idx(op.Stage-1, op.Micro)] = end
			}
			kPP[r]++
			progressed = true
		}
		return progressed
	}

	// dpDrain advances rank r's data-parallel stream: restores (depending,
	// via double buffering, on the last consumer of the buffer two restores
	// back) and reductions (depending on the backward that produced their
	// gradients).
	dpDrain := func(r int) bool {
		progressed := false
		base, n := opOff[r], opOff[r+1]-opOff[r]
		for kDP[r] < n {
			op := ops[base+kDP[r]]
			switch op.Kind {
			case Forward, Backward:
				// Creation-order bookkeeping: the op consumes the latest
				// restore of its stage, and backwards feed later reduces.
				if ri := lastRestore(restoreIdxD, op.Stage, op.Micro); ri >= 0 {
					consumers[r][ri] = idx(op.Stage, op.Micro)*2 + btoi(op.Kind == Backward)
				}
				if op.Kind == Backward {
					bwdSeenD[idx(op.Stage, op.Micro)] = true
				}
			case Restore:
				i := len(restoreEnd[r])
				start := tDP[r]
				if i >= 2 {
					// Double buffering: this restore may only start once the
					// buffer two restores back has been consumed.
					if ref := consumers[r][i-2]; ref >= 0 {
						e := fwdEnd[ref/2]
						if ref&1 == 1 {
							e = bwdEnd[ref/2]
						}
						if e < 0 {
							return progressed // consumer not yet executed
						}
						if e > start {
							start = e
						}
					}
				}
				end := start + c.Restore
				tDP[r] = end
				restoreIdxD[op.Stage*(nm+1)+op.Micro+1] = i
				restoreEnd[r] = append(restoreEnd[r], end)
				consumers[r] = append(consumers[r], -1)
			case Reduce:
				start := tDP[r]
				mi := op.Micro
				if mi < 0 {
					mi = nm - 1 // per-batch reduce waits for the last backward
				}
				if bwdSeenD[idx(op.Stage, mi)] {
					e := bwdEnd[idx(op.Stage, mi)]
					if e < 0 {
						return progressed
					}
					if e > start {
						start = e
					}
				}
				end := start + c.Reduce
				tDP[r] = end
				if end > maxReduceEnd[r] {
					maxReduceEnd[r] = end
				}
				reduceDone[r]++
			}
			kDP[r]++
			progressed = true
		}
		return progressed
	}

	for {
		progressed := false
		done := true
		for r := 0; r < nDev; r++ {
			if compDrain(r) {
				progressed = true
			}
			if ppStream && ppDrain(r) {
				progressed = true
			}
			if dpStream && dpDrain(r) {
				progressed = true
			}
			if n := opOff[r+1] - opOff[r]; kComp[r] < n || (withOpt && !optDone[r]) ||
				(ppStream && kPP[r] < n) || (dpStream && kDP[r] < n) {
				done = false
			}
		}
		if done {
			return true
		}
		if !progressed {
			return false
		}
	}
}

// replayMakespan reads the completed replay's makespan: the latest finish
// across every stream — a trailing transfer or restore can outlive the
// optimizer step.
func replayMakespan(sc *replayScratch, p core.Plan) float64 {
	var makespan float64
	for r := 0; r < numDevices(p); r++ {
		if sc.tComp[r] > makespan {
			makespan = sc.tComp[r]
		}
		if sc.tPP[r] > makespan {
			makespan = sc.tPP[r]
		}
		if sc.tDP[r] > makespan {
			makespan = sc.tDP[r]
		}
	}
	return makespan
}

// replay evaluates the exact DES makespan of a plan from an emitter, which
// writes each rank's Forward, Backward, Restore and Reduce ops (the
// trailing Optimize is implicit). It models the engine's three
// per-device streams — compute, pipeline transfer and data-parallel — with
// one cursor each over the same op sequence: a cursor executes the ops that
// ride its stream and keeps static creation-order bookkeeping for the ones
// that don't, mirroring how the engine's builder fixes dependencies at
// task-creation time. The ops are emitted once into pooled scratch; no
// Schedule or simulator state is ever built. It returns (0, false) if the
// sequences deadlock (a malformed emitter).
func replay(p core.Plan, c StepCosts, emit emitFunc) (float64, bool) {
	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)
	initReplay(sc, p, emit)
	if !runReplay(sc, p, c, true) {
		return 0, false
	}
	return replayMakespan(sc, p), true
}

// --- Prefix-amortized replay: checkpoint, resume and the shared cache. ---

// replayCheckpoint freezes a partially-run replay — the cursor/frontier
// state a withOpt=false runReplay leaves after the shared prefix — so
// candidates at one grid point that share the prefix resume from it
// instead of re-running the whole sequence. The scratch inside is owned by
// the checkpoint (never pooled) and is immutable after build; resume
// deep-copies it out into pooled scratch.
type replayCheckpoint struct {
	sc replayScratch
	ok bool
}

// checkpointReplay prices a shared prefix once: it emits the prefix into
// pooled scratch, drains it fully with the trailing optimizer withheld and
// copies the resulting state into the checkpoint. A deadlocking prefix
// yields ok=false, which resumeReplay reports as a non-exact replay.
func checkpointReplay(p core.Plan, c StepCosts, emit emitFunc) *replayCheckpoint {
	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)
	initReplay(sc, p, emit)
	ck := &replayCheckpoint{ok: runReplay(sc, p, c, false)}
	copyScratch(&ck.sc, sc)
	return ck
}

// copyScratch deep-copies the recurrence state of src into dst, reusing
// dst's retained capacity. The ops are not copied: a resumed replay
// re-emits them. The inner slices of restoreEnd/consumers are copied
// element-wise: resumed runs append to them.
func copyScratch(dst, src *replayScratch) {
	dst.owner = append(dst.owner[:0], src.owner...)
	dst.fwdEnd = append(dst.fwdEnd[:0], src.fwdEnd...)
	dst.bwdEnd = append(dst.bwdEnd[:0], src.bwdEnd...)
	dst.inF = append(dst.inF[:0], src.inF...)
	dst.inB = append(dst.inB[:0], src.inB...)
	dst.tComp = append(dst.tComp[:0], src.tComp...)
	dst.tPP = append(dst.tPP[:0], src.tPP...)
	dst.tDP = append(dst.tDP[:0], src.tDP...)
	dst.maxRed = append(dst.maxRed[:0], src.maxRed...)
	dst.kComp = append(dst.kComp[:0], src.kComp...)
	dst.kPP = append(dst.kPP[:0], src.kPP...)
	dst.kDP = append(dst.kDP[:0], src.kDP...)
	dst.reduceDone = append(dst.reduceDone[:0], src.reduceDone...)
	dst.reduceSeen = append(dst.reduceSeen[:0], src.reduceSeen...)
	dst.restoreSeenC = append(dst.restoreSeenC[:0], src.restoreSeenC...)
	dst.optDone = append(dst.optDone[:0], src.optDone...)
	dst.restoreIdxC = append(dst.restoreIdxC[:0], src.restoreIdxC...)
	dst.restoreIdxD = append(dst.restoreIdxD[:0], src.restoreIdxD...)
	dst.bwdSeenD = append(dst.bwdSeenD[:0], src.bwdSeenD...)
	if cap(dst.restoreEnd) < len(src.restoreEnd) {
		dst.restoreEnd = make([][]float64, len(src.restoreEnd))
	}
	dst.restoreEnd = dst.restoreEnd[:len(src.restoreEnd)]
	for i := range src.restoreEnd {
		dst.restoreEnd[i] = append(dst.restoreEnd[i][:0], src.restoreEnd[i]...)
	}
	if cap(dst.consumers) < len(src.consumers) {
		dst.consumers = make([][]int, len(src.consumers))
	}
	dst.consumers = dst.consumers[:len(src.consumers)]
	for i := range src.consumers {
		dst.consumers[i] = append(dst.consumers[i][:0], src.consumers[i]...)
	}
}

// resumeReplay completes a checkpointed prefix for one candidate: it copies
// the frozen state into pooled scratch, emits the candidate's whole program
// with emit and drains the remainder with the trailing optimizer. Every
// rank's program must begin with the checkpointed prefix, so the
// rank-relative stream cursors point at the first op past it. The dataflow
// recurrence makes the result bit-identical to an uninterrupted replay.
func resumeReplay(ck *replayCheckpoint, p core.Plan, c StepCosts, emit emitFunc) (float64, bool) {
	if !ck.ok {
		return 0, false
	}
	sc := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(sc)
	copyScratch(sc, &ck.sc)
	emitOps(sc, p, emit)
	if !runReplay(sc, p, c, true) {
		return 0, false
	}
	return replayMakespan(sc, p), true
}

// Prefix classes, keyed alongside the normalized plan so distinct sequence
// shapes never share a checkpoint.
const (
	prefixClassGpipe uint8 = iota + 1
	prefixClassHybridSeq
)

// replayCacheKey identifies one shared prefix: the class, the candidate
// plan with the fields the prefix does not depend on normalized away, and
// the step costs with the tail-only components zeroed. Plan and StepCosts
// are comparable value structs, so the key is a valid map key.
type replayCacheKey struct {
	class uint8
	plan  core.Plan
	costs StepCosts
}

type replayCacheEntry struct {
	once sync.Once
	ck   *replayCheckpoint
}

// ReplayCache shares prefix checkpoints between the candidates of one
// search group. It is safe for concurrent use: each checkpoint is built
// exactly once (sync.Once per entry) and is immutable afterwards. The
// search creates one cache per evalGroups call and passes it to ReplayLB;
// a nil cache degrades every replay to the uncached one.
type ReplayCache struct {
	mu sync.Mutex
	m  map[replayCacheKey]*replayCacheEntry
}

// NewReplayCache returns an empty cache.
func NewReplayCache() *ReplayCache {
	return &ReplayCache{m: map[replayCacheKey]*replayCacheEntry{}}
}

// checkpoint returns the cached checkpoint for key, building it with build
// on first use.
func (rc *ReplayCache) checkpoint(key replayCacheKey, build func() *replayCheckpoint) *replayCheckpoint {
	rc.mu.Lock()
	e, ok := rc.m[key]
	if !ok {
		e = &replayCacheEntry{}
		rc.m[key] = e
	}
	rc.mu.Unlock()
	e.once.Do(func() { e.ck = build() })
	return e.ck
}

// --- Tier-2 entry point and the cheap floors. ---

// emitter is implemented by every generator whose program is written as a
// fixed per-rank op order. emit appends one rank's ops without the
// trailing optimizer; Generate builds the Schedule from it and ReplayLB
// prices it straight from the emitter, allocation-free. A generator
// without one (the list-scheduled V-schedule) is priced by replaying its
// checked, memoized program instead.
type emitter interface {
	emit(b *progBuilder, rank int)
}

// prefixReplayer is implemented by the generators whose candidates at one
// grid point share a replay prefix that a ReplayCache can checkpoint.
// replayCached must return exactly what the uncached replay returns.
type prefixReplayer interface {
	replayCached(p core.Plan, c StepCosts, rc *ReplayCache) (float64, bool)
}

// ReplayLB is the tier-2 bound: the exact DES makespan of the plan under
// the given per-operation costs, obtained by replaying its ops on the
// engine's multi-stream model. The ops come from the generator's emitter
// when it has one, and otherwise from the checked program Cached memoizes
// (the one the engine simulates), so every registered generator is priced
// exactly. exact is false only when the plan has no valid program or the
// sequences deadlock; the caller then falls back to its floor. rc shares
// replay prefixes between the candidates of one search group; nil means
// uncached, and the result is identical either way.
func ReplayLB(p core.Plan, c StepCosts, rc *ReplayCache) (lb float64, exact bool) {
	g, ok := Lookup(p.Method)
	if !ok {
		return 0, false
	}
	if pr, ok := g.(prefixReplayer); ok && rc != nil {
		return pr.replayCached(p, c, rc)
	}
	if e, ok := g.(emitter); ok {
		return replay(p, c, e.emit)
	}
	s, err := Cached(p)
	if err != nil {
		return 0, false
	}
	return replay(p, c, func(b *progBuilder, r int) {
		prog := s.Devices[r]
		b.prog = append(b.prog, prog[:len(prog)-1]...) // Check pins Optimize as the final op
	})
}

// forwardFirstFloor is the admissible lower bound of the overlapped
// forward-first wrap schedules (breadth-first, GPipe): the warm-up chain to
// the last device, that device's full compute (its program runs every
// forward before any backward), the backward drain chain back to device 0,
// the exposed tail reduction and the optimizer step. Plain arithmetic can
// round above the simulator's chained additions by a few ulps, so callers
// shave the result with BoundSlack. It is the generators' tier-1 StepFloor;
// the exact replay supersedes it whenever a candidate reaches tier 2.
func forwardFirstFloor(p core.Plan, c StepCosts) float64 {
	nm, loops := float64(p.NumMicro), float64(p.Loops)
	compute := nm * loops * (c.Fwd + c.Bwd)
	var ramp, drain float64
	if p.PP > 1 {
		x := c.Transfer
		if !p.OverlapPP {
			x += c.PPStall
		}
		hops := float64(p.PP - 1)
		ramp = hops * (c.Fwd + x)
		drain = hops * (c.Bwd + x)
	}
	tail := c.Opt
	if p.DP > 1 {
		tail += c.Reduce
	}
	return BoundSlack(ramp+compute+drain+tail, p.NumMicro*p.Loops*2+2*p.PP)
}

// vScheduleFloor is the list-schedule-aware warmup/drain floor of the
// vee-placed V-schedule: its tier-1 StepFloor, which settles candidates
// before ReplayLB pays for replaying their greedy list-scheduled programs.
// It exploits two structural facts the generic placement floor cannot see:
// (a) no backward anywhere may start before some micro-batch's complete
// forward chain has reached the last stage, after which the device hosting
// that stage — which, in the vee placement, also hosts stage 0 — still
// executes its entire backward workload; and (b) every stage-0 backward
// additionally waits for the backward chain down from the last stage, and
// all N_mb of them serialize on stage 0's device. Both terms are
// placement-derived dependency chains, valid at any in-flight cap (the cap
// only delays ops further), and are shaved by BoundSlack like every
// plain-arithmetic bound.
func vScheduleFloor(p core.Plan, c StepCosts) float64 {
	nStages := p.Stages()
	nm := float64(p.NumMicro)
	x := c.Transfer
	if !p.OverlapPP {
		x += c.PPStall
	}
	crossings := 0
	prev := p.StageDevice(0)
	for s := 1; s < nStages; s++ {
		d := p.StageDevice(s)
		if d != prev {
			crossings++
		}
		prev = d
	}
	var tail float64
	if p.DP > 1 {
		tail = c.Reduce // exposed: the optimizer waits for the last reduce
	}
	// End of F(last stage, m) for any micro-batch m: the full forward chain.
	ramp := float64(nStages)*c.Fwd + float64(crossings)*x
	// Warm-up term: the last stage's device still runs all its backwards.
	t1 := ramp + nm*float64(p.Loops)*c.Bwd + tail + c.Opt
	// Drain term: the backward chain down to stage 0, then all N_mb
	// stage-0 backwards on its device.
	t2 := ramp + float64(nStages-1)*c.Bwd + float64(crossings)*x + nm*c.Bwd + tail + c.Opt
	best := t1
	if t2 > best {
		best = t2
	}
	// Cap term: the vee placement puts stage 0 and the last stage on the
	// same device, and the list scheduler's priority (lowest micro-batch
	// among ready admissible forwards, all stage-0 forwards ready from the
	// start) makes that device issue the first nm-1 stage-0 forwards before
	// F(0, nm-1). Under the in-flight cap it can hold at most capPairs of
	// them, so by then it has already issued at least nm-1-capPairs
	// backwards (2x forward cost each); the serial-head exemption can lift
	// the cap for at most the head micro-batch's Loops local stages, modeled
	// by widening the cap with +Loops. After F(0, nm-1) the last
	// micro-batch still needs its forward chain up (nStages-1 more stages
	// plus the boundary crossings) and its full backward chain down
	// (nStages backwards plus the crossings again) before the exposed tail.
	// Every term is a dependency- or capacity-forced serialization on that
	// one device, so the sum is admissible at any cap; large caps reduce it
	// below t1/t2 and it simply stops binding.
	capEff := float64(vCap(p) + p.Loops)
	extraB := nm - 1 - capEff
	if extraB < 0 {
		extraB = 0
	}
	t3 := (nm+float64(nStages)-1)*c.Fwd + (extraB+float64(nStages))*c.Bwd +
		2*float64(crossings)*x + tail + c.Opt
	if t3 > best {
		best = t3
	}
	return BoundSlack(best, 2*p.NumMicro*p.Loops+4*nStages+16)
}

// BoundSlack shaves a bound computed with plain (non-chained) float
// arithmetic by a relative margin covering the worst-case rounding
// difference against the simulator's n sequential additions, keeping the
// bound strictly admissible without measurably loosening it. It is shared
// with the generic floor in internal/analytic — the margin is
// load-bearing for admissibility, so there is exactly one copy.
func BoundSlack(v float64, n int) float64 {
	return v * (1 - float64(n+16)*1e-15)
}

// replayCached is GPipe's prefix-amortized replay. GPipe candidates at one
// grid point differing only in sharding (DP0 vs DP-PS; DP-FS is excluded)
// share their entire compute program and differ only in the tail
// reduction's cost, so the compute emitter is checkpointed once per grid
// point and each candidate resumes at its bunched reductions. The cache
// key normalizes the sharding away and zeroes the tail-only costs
// (Reduce/Restore/Opt), which the prefix never charges; the stream layout
// is sharding-independent here (the dp stream exists iff OverlapDP and
// DP > 1, and gpipe has no restores), so the frozen frontiers are
// bit-identical to an uninterrupted replay's state at the same point.
func (g gpipeGen) replayCached(p core.Plan, c StepCosts, rc *ReplayCache) (float64, bool) {
	kp := p
	kp.Sharding = core.DP0
	kc := c
	kc.Reduce, kc.Restore, kc.Opt = 0, 0, 0
	ck := rc.checkpoint(replayCacheKey{prefixClassGpipe, kp, kc}, func() *replayCheckpoint {
		return checkpointReplay(kp, kc, g.compute)
	})
	return resumeReplay(ck, p, c, g.emit)
}

// replayCached is the hybrid schedule's prefix-amortized replay. At
// Loops == 1 the sequenced program is invariant in the sequence length q:
// the warmup 2*(PP-r-1) + (Loops-1)*q loses its q term, every unit step
// degenerates to (chunk 0, micro k), and the single bunched reduce is
// q-independent — so the grid point's whole candidate set (one plan per
// SequenceOption) shares one full-program checkpoint, resumed per
// candidate with only the trailing optimizer left to issue. The key
// normalizes Sequence away and zeroes the optimizer cost (the only op the
// prefix withholds). Looped plans genuinely differ per q and take the
// uncached replay.
func (g hybridGen) replayCached(p core.Plan, c StepCosts, rc *ReplayCache) (float64, bool) {
	if p.Loops != 1 {
		return replay(p, c, g.emit)
	}
	kp := p
	kp.Sequence = 0
	kc := c
	kc.Opt = 0
	ck := rc.checkpoint(replayCacheKey{prefixClassHybridSeq, kp, kc}, func() *replayCheckpoint {
		return checkpointReplay(kp, kc, g.emit)
	})
	return resumeReplay(ck, p, c, g.emit)
}

package schedule

import "bfpp/internal/core"

// progBuilder accumulates one device's operation list. It is the shared
// program-construction helper every registered generator is written on
// top of: generators express schedule structure (which op, which stage,
// which micro-batch, in what order) and the builder owns the op encoding
// and the recurring data-parallel patterns.
type progBuilder struct {
	p    core.Plan
	prog Program
}

// forward appends the forward pass of one (stage, micro-batch).
func (b *progBuilder) forward(stage, micro int) {
	b.prog = append(b.prog, Op{Forward, stage, micro})
}

// backward appends the backward pass of one (stage, micro-batch).
func (b *progBuilder) backward(stage, micro int) {
	b.prog = append(b.prog, Op{Backward, stage, micro})
}

// restore appends a DP-FS weight reconstruction of a stage; micro is -1
// for a per-pass restore and a micro-batch index when repeated.
func (b *progBuilder) restore(stage, micro int) {
	b.prog = append(b.prog, Op{Restore, stage, micro})
}

// reduce appends a gradient reduction of a stage; micro is -1 for a
// per-batch reduction and a micro-batch index when repeated.
func (b *progBuilder) reduce(stage, micro int) {
	b.prog = append(b.prog, Op{Reduce, stage, micro})
}

// needReduce reports whether the plan requires gradient reductions.
func (b *progBuilder) needReduce() bool { return b.p.DP > 1 }

// fullySharded reports DP-FS sharding (restores required before each use).
func (b *progBuilder) fullySharded() bool { return b.p.Sharding == core.DPFS }

// bunchedReduces appends per-stage reductions for the device's stages in
// reverse stage order. With a non-overlapping implementation (Megatron-LM)
// the reductions are bunched after the compute program, which is also
// where this helper is invoked.
func (b *progBuilder) bunchedReduces(rank int) {
	if !b.needReduce() {
		return
	}
	stages := b.p.DeviceStages(rank)
	for i := len(stages) - 1; i >= 0; i-- {
		b.reduce(stages[i], -1)
	}
}

// finish appends the single trailing optimizer step and returns the
// completed program.
func (b *progBuilder) finish() Program {
	b.prog = append(b.prog, Op{Optimize, -1, -1})
	return b.prog
}

// numDevices is the number of device programs of a plan: one per pipeline
// rank for the pipelined methods, one for the no-pipeline methods.
func numDevices(p core.Plan) int {
	if p.Method.Pipelined() {
		return p.PP
	}
	return 1
}

// emitFunc appends one rank's program, without the trailing optimizer
// step, to the builder. It is the single encoding of a replayable
// schedule: build turns it into the Schedule the engine simulates, and
// the tier-2 replay (stepbound.go) prices the very same ops.
type emitFunc func(b *progBuilder, rank int)

// build runs emit once per device program and assembles the schedule;
// each invocation starts an empty program and finish() is applied for it.
// The one builder is shared across ranks because emit is an indirect call,
// which makes the builder escape to the heap.
func build(p core.Plan, emit emitFunc) *Schedule {
	devs := make([]Program, numDevices(p))
	b := &progBuilder{p: p}
	for r := range devs {
		b.prog = nil
		emit(b, r)
		devs[r] = b.finish()
	}
	return &Schedule{Plan: p, Devices: devs}
}

// Burst execution engine.
//
// The discrete-event loop in runReference re-enters the global scheduler
// after every instruction, although cores interact only through the
// hardware queues and the shared memory port (the invariant documented at
// the top of sim.go). The burst engine exploits that: each program is
// pre-scanned and predecoded into micro-ops (operands resolved, latencies
// precomputed, loads and stores bound directly to their backing slices),
// and the scheduler lets the picked core execute an uninterrupted run of
// instructions. Operations on shared state — enqueues, dequeues, and L1
// misses that need the MemPortCycles-serialized memory port — run inline
// only while the core is provably still the scheduler's (time, id)-minimal
// pick (ahead of the horizon over the other runnable cores), which makes
// their globally visible effects occur at exactly the reference engine's
// moment. A burst stops at
//
//   - a communication point past the horizon (it must wait its turn in
//     global scheduler order; the outer loop re-runs it via step once the
//     core is minimal again), or blocking on a full/empty queue,
//   - an L1 miss that needs the memory port while past the horizon, or
//   - halt, an error, or the MaxSteps budget.
//
// Everything else — arithmetic, branches, L1 hits, stores, and misses
// taken while the core is still the minimal pick — touches only core-local
// state plus race-free memory data, so executing it without rescheduling
// is observationally identical to the reference engine. The determinism
// tests assert bit-identical Results across both engines for every kernel.
package sim

import (
	"context"
	"fmt"
	"math"

	"fgp/internal/interp"
	"fgp/internal/ir"
	"fgp/internal/isa"
	"fgp/internal/queue"
)

// uop is a predecoded micro-op: the opcode fused with its operand kind and
// (for Bin/Un) its operator, so the hot loop is a single flat switch with
// no per-instruction cost-table lookups and no (Value, error) returns from
// interp.EvalBin on the common arithmetic paths.
type uop uint8

const (
	uBad uop = iota // unknown opcode: error on execution, like step
	uNop
	uConst // Dst = pre-built immediate Value
	uMov
	// F64 binary arithmetic (fast path guarded by the runtime value kind,
	// falling back to interp.EvalBin to keep exotic programs bit-exact).
	uAddF
	uSubF
	uMulF
	uDivF
	uMinF
	uMaxF
	uEqF
	uNeF
	uLtF
	uLeF
	uGtF
	uGeF
	// I64 binary arithmetic.
	uAddI
	uSubI
	uMulI
	uDivI
	uRemI
	uMinI
	uMaxI
	uAndI
	uOrI
	uXorI
	uShlI
	uShrI
	uEqI
	uNeI
	uLtI
	uLeI
	uGtI
	uGeI
	uBinGen // operator with no fused form for the kind: interp.EvalBin
	// Unary operators (each mirrors interp.EvalUn exactly).
	uNeg
	uNot
	uSqrt
	uExp
	uLog
	uAbs
	uFloor
	uCvtIF
	uCvtFI
	uUnGen // unknown unary operator: interp.EvalUn for the exact error
	uLoadF
	uLoadI
	uStoreF
	uStoreI
	uEnq // inline while ahead of the horizon, else via step in the outer loop
	uDeq // inline while ahead of the horizon, else via step in the outer loop
	uFjp
	uJp
	uJr
	uHalt
)

// dinstr is one predecoded instruction. Loads and stores carry the live
// backing slice and base address of their array so the hot loop performs a
// direct indexed access instead of going through mem.Memory; immediates
// are pre-built Values; lat is the precomputed fixed latency of the op
// (loads use the machine-level hit/miss latencies instead).
type dinstr struct {
	u        uop
	dst      int32
	a, b     int32
	lat      int64
	imm      interp.Value
	binop    ir.BinOp
	unop     ir.UnOp
	arr      int32
	tgt      int32
	tac      int32
	base     int64 // byte address of the array's element 0
	f        []float64
	i        []int64
	q        *queue.Queue // hardware queue of an Enq/Deq (nil if missing)
	edge     int32        // communication-edge tag of an Enq/Deq
	srcInstr *isa.Instr   // originating instruction, for fallback paths
}

// decode predecodes every program once per machine. It is O(program size),
// trivially amortized over simulations that execute millions of
// instructions.
func (m *Machine) decode() {
	t := &m.cfg.Cost
	m.code = make([][]dinstr, len(m.cores))
	for ci, c := range m.cores {
		code := make([]dinstr, len(c.prog.Instrs))
		for pc := range c.prog.Instrs {
			in := &c.prog.Instrs[pc]
			d := &code[pc]
			d.dst, d.a, d.b = int32(in.Dst), int32(in.A), int32(in.B)
			d.binop, d.unop = in.BinOp, in.UnOp
			d.arr, d.tgt, d.tac = in.Arr, in.Tgt, in.Tac
			d.srcInstr = in
			switch in.Op {
			case isa.Nop:
				d.u, d.lat = uNop, 1
			case isa.ConstF:
				d.u, d.lat, d.imm = uConst, t.Const, interp.VF(in.ImmF)
			case isa.ConstI:
				d.u, d.lat, d.imm = uConst, t.Const, interp.VI(in.ImmI)
			case isa.Mov:
				d.u, d.lat = uMov, t.Mov
			case isa.Bin:
				d.u, d.lat = binUop(in.BinOp, in.K), t.Bin(in.BinOp, in.K)
			case isa.Un:
				d.u, d.lat = unUop(in.UnOp), t.Un(in.UnOp, in.K)
			case isa.Load:
				if in.K == ir.F64 {
					d.u, d.f = uLoadF, m.mm.DataF(in.Arr)
				} else {
					d.u, d.i = uLoadI, m.mm.DataI(in.Arr)
				}
				d.base = m.mm.Base(in.Arr)
			case isa.Store:
				if in.K == ir.F64 {
					d.u, d.f = uStoreF, m.mm.DataF(in.Arr)
				} else {
					d.u, d.i = uStoreI, m.mm.DataI(in.Arr)
				}
				d.base = m.mm.Base(in.Arr)
				d.lat = t.Store
			case isa.Enq:
				d.u, d.lat, d.q, d.edge = uEnq, t.Enq, m.queues[in.Q], in.Edge
			case isa.Deq:
				d.u, d.lat, d.q, d.edge = uDeq, t.Deq, m.queues[in.Q], in.Edge
			case isa.Fjp:
				d.u, d.lat = uFjp, t.Branch
			case isa.Jp:
				d.u, d.lat = uJp, t.Branch
			case isa.Jr:
				d.u, d.lat = uJr, t.Branch
			case isa.Halt:
				d.u = uHalt
			default:
				d.u = uBad
			}
		}
		m.code[ci] = code
	}
}

// binUop fuses a binary operator with its static operand kind. Operators
// with no meaning for the kind decode to uBinGen so interp.EvalBin can
// produce the exact reference behavior (including its error).
func binUop(op ir.BinOp, k ir.Kind) uop {
	if k == ir.F64 {
		switch op {
		case ir.Add:
			return uAddF
		case ir.Sub:
			return uSubF
		case ir.Mul:
			return uMulF
		case ir.Div:
			return uDivF
		case ir.Min:
			return uMinF
		case ir.Max:
			return uMaxF
		case ir.Eq:
			return uEqF
		case ir.Ne:
			return uNeF
		case ir.Lt:
			return uLtF
		case ir.Le:
			return uLeF
		case ir.Gt:
			return uGtF
		case ir.Ge:
			return uGeF
		}
		return uBinGen
	}
	switch op {
	case ir.Add:
		return uAddI
	case ir.Sub:
		return uSubI
	case ir.Mul:
		return uMulI
	case ir.Div:
		return uDivI
	case ir.Rem:
		return uRemI
	case ir.Min:
		return uMinI
	case ir.Max:
		return uMaxI
	case ir.And:
		return uAndI
	case ir.Or:
		return uOrI
	case ir.Xor:
		return uXorI
	case ir.Shl:
		return uShlI
	case ir.Shr:
		return uShrI
	case ir.Eq:
		return uEqI
	case ir.Ne:
		return uNeI
	case ir.Lt:
		return uLtI
	case ir.Le:
		return uLeI
	case ir.Gt:
		return uGtI
	case ir.Ge:
		return uGeI
	}
	return uBinGen
}

func unUop(op ir.UnOp) uop {
	switch op {
	case ir.Neg:
		return uNeg
	case ir.Not:
		return uNot
	case ir.Sqrt:
		return uSqrt
	case ir.Exp:
		return uExp
	case ir.Log:
		return uLog
	case ir.Abs:
		return uAbs
	case ir.Floor:
		return uFloor
	case ir.CvtIF:
		return uCvtIF
	case ir.CvtFI:
		return uCvtFI
	}
	return uUnGen
}

// runBurst is the outer scheduler of the burst engine. Like the reference
// loop it always advances the (time, id)-minimal runnable core, but hands
// that core to burst, which executes until a communication point or an
// unsafe memory-port access. Enqueues and dequeues themselves run through
// the untouched step, so all queue blocking, waking, and stall accounting
// is shared verbatim with the reference engine.
//
// A cancellable context is polled once per scheduling decision, and each
// burst's step budget is clamped to cancelStride so a core that never
// communicates (a sequential kernel has no horizon at all) still returns to
// the scheduler — and therefore to the poll — promptly. The clamp changes
// where bursts pause, never what they compute: the resumed burst continues
// from identical machine state.
func (m *Machine) runBurst(ctx context.Context) (*Result, error) {
	if m.code == nil {
		m.decode()
	}
	done := ctx.Done()
	obsOn := m.sink != nil
	var steps int64
	for {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		c := m.pickCore()
		if c == nil {
			if m.allHalted() {
				break
			}
			return nil, fmt.Errorf("%w\n%s", ErrDeadlock, m.dump())
		}
		code := m.code[c.id]
		if c.pc < 0 || c.pc >= len(code) {
			return nil, fmt.Errorf("sim: core %d pc %d t=%d: pc out of program (len %d)", c.id, c.pc, c.time, len(code))
		}
		// With a sink attached every instruction takes the shared step
		// path: retire, queue and stall events are emitted from one place,
		// the streams match the reference engine by construction, and the
		// burst fast path below stays free of instrumentation.
		if u := code[c.pc].u; obsOn || u == uEnq || u == uDeq {
			if err := m.step(c); err != nil {
				return nil, fmt.Errorf("sim: core %d pc %d t=%d: %w", c.id, c.pc, c.time, err)
			}
			steps++
		} else {
			hTime, hID := m.horizon(c)
			budget := m.cfg.MaxSteps - steps + 1
			if done != nil && budget > cancelStride {
				budget = cancelStride
			}
			n, err := m.burst(c, hTime, hID, budget)
			steps += n
			if err != nil {
				return nil, fmt.Errorf("sim: core %d pc %d t=%d: %w", c.id, c.pc, c.time, err)
			}
		}
		if steps > m.cfg.MaxSteps {
			return nil, fmt.Errorf("sim: exceeded MaxSteps=%d (livelock?)\n%s", m.cfg.MaxSteps, m.dump())
		}
	}
	return m.result(), nil
}

// horizon returns the (time, id) of the lexicographically minimal runnable
// core other than c: the point up to which c is guaranteed to remain the
// scheduler's pick. Blocked cores are excluded — they cannot execute until
// some core reaches an enqueue/dequeue, which ends any burst first.
func (m *Machine) horizon(c *coreState) (int64, int) {
	hTime := int64(math.MaxInt64)
	hID := int(math.MaxInt32)
	for _, o := range m.cores {
		if o == c || o.halted || o.blocked != notBlocked {
			continue
		}
		if o.time < hTime {
			hTime, hID = o.time, o.id
		}
	}
	return hTime, hID
}

// burst executes core c until a communication point, an L1 miss that must
// wait its turn at the shared memory port, a halt, an error, or the step
// budget. It returns the number of instructions executed. On entry c is
// the scheduler's pick, so the first instruction — including a missing
// load — is always safe to execute.
func (m *Machine) burst(c *coreState, hTime int64, hID int, budget int64) (int64, error) {
	code := m.code[c.id]
	regs := c.regs
	cc := c.cache
	pc := c.pc
	time := c.time
	cid := c.id
	portOn := m.cfg.MemPortCycles > 0
	// Per-load constants and the port cursor, hoisted out of the hot loop.
	// No other core runs during a burst, so memPortFree is ours alone; it is
	// written back on every exit path below.
	l1Hit, l1Miss := m.cfg.Cost.L1Hit, m.cfg.Cost.L1Miss
	portCycles := m.cfg.MemPortCycles
	portFree := m.memPortFree
	profOn := m.prof != nil
	transferLat := m.cfg.TransferLatency
	dbgEdges := m.cfg.DebugEdges
	var steps int64
	var err error

loop:
	for steps < budget {
		if pc < 0 || pc >= len(code) {
			err = fmt.Errorf("pc out of program (len %d)", len(code))
			break loop
		}
		in := &code[pc]
		switch in.u {
		case uNop:
			time++
		case uConst:
			regs[in.dst] = in.imm
			time += in.lat
		case uMov:
			regs[in.dst] = regs[in.a]
			time += in.lat

		case uAddF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: l.F + regs[in.b].F}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uSubF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: l.F - regs[in.b].F}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uMulF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: l.F * regs[in.b].F}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uDivF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: l.F / regs[in.b].F}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uMinF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: math.Min(l.F, regs[in.b].F)}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uMaxF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: math.Max(l.F, regs[in.b].F)}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uEqF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.VB(l.F == regs[in.b].F)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uNeF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.VB(l.F != regs[in.b].F)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uLtF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.VB(l.F < regs[in.b].F)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uLeF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.VB(l.F <= regs[in.b].F)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uGtF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.VB(l.F > regs[in.b].F)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uGeF:
			if l := regs[in.a]; l.K == ir.F64 {
				regs[in.dst] = interp.VB(l.F >= regs[in.b].F)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat

		case uAddI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I + regs[in.b].I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uSubI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I - regs[in.b].I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uMulI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I * regs[in.b].I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uDivI:
			// Division by zero routes through the fallback for the exact
			// reference error.
			if l, r := regs[in.a], regs[in.b]; l.K != ir.F64 && r.I != 0 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I / r.I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uRemI:
			if l, r := regs[in.a], regs[in.b]; l.K != ir.F64 && r.I != 0 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I % r.I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uMinI:
			// EvalBin returns the operand Value itself for integer min/max;
			// copy that behavior exactly.
			if l, r := regs[in.a], regs[in.b]; l.K != ir.F64 {
				if l.I < r.I {
					regs[in.dst] = l
				} else {
					regs[in.dst] = r
				}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uMaxI:
			if l, r := regs[in.a], regs[in.b]; l.K != ir.F64 {
				if l.I > r.I {
					regs[in.dst] = l
				} else {
					regs[in.dst] = r
				}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uAndI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I & regs[in.b].I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uOrI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I | regs[in.b].I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uXorI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I ^ regs[in.b].I}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uShlI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I << uint64(regs[in.b].I&63)}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uShrI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.Value{K: ir.I64, I: l.I >> uint64(regs[in.b].I&63)}
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uEqI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.VB(l.I == regs[in.b].I)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uNeI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.VB(l.I != regs[in.b].I)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uLtI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.VB(l.I < regs[in.b].I)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uLeI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.VB(l.I <= regs[in.b].I)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uGtI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.VB(l.I > regs[in.b].I)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uGeI:
			if l := regs[in.a]; l.K != ir.F64 {
				regs[in.dst] = interp.VB(l.I >= regs[in.b].I)
			} else if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat
		case uBinGen:
			if err = binFallback(in, regs); err != nil {
				break loop
			}
			time += in.lat

		case uNeg:
			if v := regs[in.a]; v.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: -v.F}
			} else {
				regs[in.dst] = interp.Value{K: ir.I64, I: -v.I}
			}
			time += in.lat
		case uNot:
			regs[in.dst] = interp.VB(regs[in.a].I == 0)
			time += in.lat
		case uSqrt:
			regs[in.dst] = interp.Value{K: ir.F64, F: math.Sqrt(regs[in.a].F)}
			time += in.lat
		case uExp:
			regs[in.dst] = interp.Value{K: ir.F64, F: math.Exp(regs[in.a].F)}
			time += in.lat
		case uLog:
			regs[in.dst] = interp.Value{K: ir.F64, F: math.Log(regs[in.a].F)}
			time += in.lat
		case uAbs:
			if v := regs[in.a]; v.K == ir.F64 {
				regs[in.dst] = interp.Value{K: ir.F64, F: math.Abs(v.F)}
			} else if v.I < 0 {
				regs[in.dst] = interp.Value{K: ir.I64, I: -v.I}
			} else {
				regs[in.dst] = v
			}
			time += in.lat
		case uFloor:
			regs[in.dst] = interp.Value{K: ir.F64, F: math.Floor(regs[in.a].F)}
			time += in.lat
		case uCvtIF:
			regs[in.dst] = interp.Value{K: ir.F64, F: float64(regs[in.a].I)}
			time += in.lat
		case uCvtFI:
			regs[in.dst] = interp.Value{K: ir.I64, I: interp.TruncFI(regs[in.a].F)}
			time += in.lat
		case uUnGen:
			var v interp.Value
			if v, err = interp.EvalUn(in.unop, regs[in.a]); err != nil {
				break loop
			}
			regs[in.dst] = v
			time += in.lat

		case uLoadF:
			idx := regs[in.a].I
			if uint64(idx) >= uint64(len(in.f)) {
				if _, err = m.mm.LoadF(in.arr, idx); err == nil {
					err = fmt.Errorf("load out of bounds")
				}
				break loop
			}
			addr := in.base + idx*8
			if portOn && !(time < hTime || (time == hTime && cid < hID)) && !cc.Probe(addr) {
				// The load would miss and the core is no longer the
				// scheduler's minimal pick: another core may own the next
				// memory-port grant. Yield; the load re-executes once this
				// core is minimal again.
				break loop
			}
			var lat int64
			if cc.Access(addr) {
				lat = l1Hit
			} else {
				start := time
				if portOn {
					if portFree > start {
						start = portFree
					}
					portFree = start + portCycles
					m.portBusy += portCycles
				}
				lat = start - time + l1Miss
			}
			regs[in.dst] = interp.Value{K: ir.F64, F: in.f[idx]}
			time += lat
			if profOn && in.tac >= 0 {
				m.prof[in.tac][0] += lat
				m.prof[in.tac][1]++
			}
		case uLoadI:
			idx := regs[in.a].I
			if uint64(idx) >= uint64(len(in.i)) {
				if _, err = m.mm.LoadI(in.arr, idx); err == nil {
					err = fmt.Errorf("load out of bounds")
				}
				break loop
			}
			addr := in.base + idx*8
			if portOn && !(time < hTime || (time == hTime && cid < hID)) && !cc.Probe(addr) {
				break loop
			}
			var lat int64
			if cc.Access(addr) {
				lat = l1Hit
			} else {
				start := time
				if portOn {
					if portFree > start {
						start = portFree
					}
					portFree = start + portCycles
					m.portBusy += portCycles
				}
				lat = start - time + l1Miss
			}
			regs[in.dst] = interp.Value{K: ir.I64, I: in.i[idx]}
			time += lat
			if profOn && in.tac >= 0 {
				m.prof[in.tac][0] += lat
				m.prof[in.tac][1]++
			}

		case uStoreF:
			idx := regs[in.a].I
			if uint64(idx) >= uint64(len(in.f)) {
				if err = m.mm.StoreF(in.arr, idx, regs[in.b].F); err == nil {
					err = fmt.Errorf("store out of bounds")
				}
				break loop
			}
			in.f[idx] = regs[in.b].F
			// cache.Touch is a no-op for the write-through no-allocate L1;
			// elided here (the reference step still calls it).
			time += in.lat
		case uStoreI:
			idx := regs[in.a].I
			if uint64(idx) >= uint64(len(in.i)) {
				if err = m.mm.StoreI(in.arr, idx, regs[in.b].I); err == nil {
					err = fmt.Errorf("store out of bounds")
				}
				break loop
			}
			in.i[idx] = regs[in.b].I
			time += in.lat

		case uEnq:
			// Communication point. Safe to run inline only while this core
			// is provably the scheduler's next pick — then both the
			// full/block decision and the receiver wake-up happen at
			// exactly the reference engine's moment. Otherwise (or for a
			// missing queue, which step turns into the exact error) the
			// burst yields and the outer loop runs it via step.
			q := in.q
			if q == nil || !(time < hTime || (time == hTime && cid < hID)) {
				break loop
			}
			if q.Full() {
				c.blocked = blockedFull
				c.blockQ = q
				c.blockAt = time
				break loop
			}
			q.Push(regs[in.a], time+transferLat, in.edge)
			time += in.lat
			pc++
			steps++
			if dst := m.coreByID(q.Dst); dst != nil && dst.blocked == blockedEmpty && dst.blockQ == q {
				dst.blocked = notBlocked
				dst.blockQ = nil
				// The wake adds a runnable core; tighten the horizon.
				hTime, hID = m.horizon(c)
			}
			continue
		case uDeq:
			// Mirror image of uEnq. DebugEdges dequeues take the step path
			// for its FIFO-mismatch diagnostics.
			q := in.q
			if q == nil || dbgEdges || !(time < hTime || (time == hTime && cid < hID)) {
				break loop
			}
			if q.Empty() {
				c.blocked = blockedEmpty
				c.blockQ = q
				c.blockAt = time
				break loop
			}
			e := q.Pop()
			start := time
			if e.AvailAt > start {
				start = e.AvailAt
			}
			c.deqSt += start - time
			regs[in.dst] = e.V
			time = start + in.lat
			pc++
			steps++
			if src := m.coreByID(q.Src); src != nil && src.blocked == blockedFull && src.blockQ == q {
				src.blocked = notBlocked
				src.blockQ = nil
				src.enqSt += start - src.blockAt
				if src.time < start {
					src.time = start
				}
				hTime, hID = m.horizon(c)
			}
			continue

		case uFjp:
			time += in.lat
			steps++
			if regs[in.a].I == 0 {
				pc = int(in.tgt)
			} else {
				pc++
			}
			continue
		case uJp:
			time += in.lat
			steps++
			pc = int(in.tgt)
			continue
		case uJr:
			time += in.lat
			steps++
			pc = int(regs[in.a].I)
			continue
		case uHalt:
			c.halted = true
			steps++
			break loop

		default: // uBad
			err = fmt.Errorf("unknown opcode %s", in.srcInstr.Op)
			break loop
		}
		pc++
		steps++
	}

	c.pc = pc
	c.time = time
	c.instrs += steps
	m.memPortFree = portFree
	return steps, err
}

// binFallback routes a binary operation through interp.EvalBin — the
// shared semantics oracle — for operand kinds the fused fast paths do not
// cover, so results and errors stay bit-identical to the reference step.
func binFallback(in *dinstr, regs []interp.Value) error {
	v, err := interp.EvalBin(in.binop, regs[in.a], regs[in.b])
	if err != nil {
		return err
	}
	regs[in.dst] = v
	return nil
}

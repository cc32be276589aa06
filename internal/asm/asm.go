package asm

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/ir"
)

// Write renders p in parseable assembly form.
func Write(w io.Writer, p *ir.Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "program %s\n", p.Name)
	for _, b := range p.Blocks {
		fmt.Fprintf(bw, "\nblock %s weight %g", b.Name, b.Weight)
		if len(b.Succs) > 0 {
			fmt.Fprintf(bw, " succs %s", strings.Join(b.Succs, ","))
		}
		bw.WriteByte('\n')
		for _, op := range b.Ops {
			bw.WriteString("  ")
			if err := writeOp(bw, op); err != nil {
				return err
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

func writeOp(w *bufio.Writer, op *ir.Op) error {
	if op.Code == ir.Custom {
		return fmt.Errorf("asm: custom instruction %%%d cannot be serialized (no portable semantics)", op.ID)
	}
	if op.NumResults() > 0 {
		fmt.Fprintf(w, "%%%d = ", op.ID)
	}
	w.WriteString(op.Code.String())
	for i, a := range op.Args {
		if i == 0 {
			w.WriteByte(' ')
		} else {
			w.WriteString(", ")
		}
		w.WriteString(operandText(a))
	}
	if op.Dest != 0 {
		fmt.Fprintf(w, " -> r%d", op.Dest)
	}
	return nil
}

func operandText(a ir.Operand) string {
	switch a.Kind {
	case ir.FromOp:
		if a.Idx != 0 {
			return fmt.Sprintf("%%%d.%d", a.X.ID, a.Idx)
		}
		return fmt.Sprintf("%%%d", a.X.ID)
	case ir.FromReg:
		return fmt.Sprintf("r%d", a.Reg)
	default:
		if int32(a.Val) < 0 && int32(a.Val) > -65536 {
			return fmt.Sprintf("#%d", int32(a.Val))
		}
		return fmt.Sprintf("#0x%x", a.Val)
	}
}

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// pendingRef is an operand that names an op by ID before that op has been
// parsed; references resolve in a second pass at block end, so forward
// references within a block are legal as long as the result is acyclic.
type pendingRef struct {
	line   int
	op     *ir.Op
	argIdx int
	id     int
	residx int
}

var opcodeByName = buildOpcodeTable()

func buildOpcodeTable() map[string]ir.Opcode {
	m := make(map[string]ir.Opcode)
	for c := ir.Opcode(0); c < ir.MaxOpcode; c++ {
		if c == ir.Custom {
			continue
		}
		m[c.String()] = c
	}
	return m
}

// Opcodes returns the parseable opcode mnemonics, sorted.
func Opcodes() []string {
	out := make([]string, 0, len(opcodeByName))
	for k := range opcodeByName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Parse reads a program in the format produced by Write. The result is
// validated before being returned.
func Parse(r io.Reader) (*ir.Program, error) {
	sc := bufio.NewScanner(r)
	// No preallocated buffer: the scanner grows its own from 4 KiB as
	// lines demand, so a parse allocates in proportion to its input, while
	// the 1 MiB cap still rejects a longer line with bufio.ErrTooLong.
	sc.Buffer(nil, 1<<20)

	var prog *ir.Program
	var blk *ir.Block
	var pend []pendingRef
	byID := map[int]*ir.Op{}

	finishBlock := func() error {
		for _, pr := range pend {
			target, ok := byID[pr.id]
			if !ok {
				return errf(pr.line, "reference to undefined op %%%d", pr.id)
			}
			if pr.residx != 0 {
				return errf(pr.line, "result index %%%d.%d: only custom ops have multiple results", pr.id, pr.residx)
			}
			pr.op.Args[pr.argIdx] = ir.Operand{Kind: ir.FromOp, X: target}
		}
		pend = pend[:0]
		clear(byID)
		return nil
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		keyword := line
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			keyword = line[:i]
		}
		switch keyword {
		case "program":
			fields := strings.Fields(line)
			if prog != nil {
				return nil, errf(lineNo, "duplicate program header")
			}
			if len(fields) != 2 {
				return nil, errf(lineNo, "usage: program NAME")
			}
			prog = ir.NewProgram(fields[1])
			continue
		case "block":
			if prog == nil {
				return nil, errf(lineNo, "block before program header")
			}
			if err := finishBlock(); err != nil {
				return nil, err
			}
			name, weight, succs, err := parseBlockHeader(lineNo, strings.Fields(line))
			if err != nil {
				return nil, err
			}
			if prog.Block(name) != nil {
				return nil, errf(lineNo, "duplicate block %q", name)
			}
			blk = prog.AddBlock(name, weight)
			blk.Succs = succs
			continue
		}
		if blk == nil {
			return nil, errf(lineNo, "operation before any block header")
		}
		if err := parseOp(lineNo, line, blk, byID, func(p pendingRef) { pend = append(pend, p) }); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	if prog == nil {
		return nil, fmt.Errorf("asm: no program header")
	}
	if err := finishBlock(); err != nil {
		return nil, err
	}
	if err := ir.Validate(prog); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return prog, nil
}

func parseBlockHeader(line int, fields []string) (name string, weight float64, succs []string, err error) {
	// block NAME weight FLOAT [succs A,B]
	if len(fields) < 4 || fields[2] != "weight" {
		return "", 0, nil, errf(line, "usage: block NAME weight FLOAT [succs A,B,...]")
	}
	name = fields[1]
	weight, perr := strconv.ParseFloat(fields[3], 64)
	if perr != nil || weight < 0 {
		return "", 0, nil, errf(line, "bad weight %q", fields[3])
	}
	rest := fields[4:]
	if len(rest) > 0 {
		if rest[0] != "succs" || len(rest) != 2 {
			return "", 0, nil, errf(line, "trailing tokens %v (expected: succs A,B,...)", rest)
		}
		succs = strings.Split(rest[1], ",")
	}
	return name, weight, succs, nil
}

// parseOp handles one instruction line. References to ops defined later in
// the block resolve in a second pass via pending.
func parseOp(line int, text string, blk *ir.Block, byID map[int]*ir.Op, pending func(pendingRef)) error {
	var idPart, rest string
	if eq := strings.Index(text, "="); eq >= 0 && strings.HasPrefix(strings.TrimSpace(text), "%") {
		idPart = strings.TrimSpace(text[:eq])
		rest = strings.TrimSpace(text[eq+1:])
	} else {
		rest = text
	}

	// Split off "-> rN" destination.
	var destReg ir.Reg
	if arrow := strings.Index(rest, "->"); arrow >= 0 {
		destText := strings.TrimSpace(rest[arrow+2:])
		rest = strings.TrimSpace(rest[:arrow])
		r, err := parseReg(line, destText)
		if err != nil {
			return err
		}
		destReg = r
	}

	mnemonic, operands, _ := strings.Cut(rest, " ")
	code, ok := opcodeByName[mnemonic]
	if !ok {
		return errf(line, "unknown opcode %q", mnemonic)
	}

	// No opcode takes more than three operands, so the operand list
	// normally stays in this stack buffer instead of a per-op allocation.
	var argBuf [4]string
	args := argBuf[:0]
	if strings.TrimSpace(operands) != "" {
		for {
			a, more, found := strings.Cut(operands, ",")
			args = append(args, strings.TrimSpace(a))
			if !found {
				break
			}
			operands = more
		}
	}
	if ar := code.Arity(); ar >= 0 && len(args) != ar {
		// Ret's single arg is optional.
		if !(code == ir.Ret && len(args) == 0) {
			return errf(line, "%s takes %d operand(s), got %d", code, ar, len(args))
		}
	}

	op := blk.Emit(code)
	op.Args = make([]ir.Operand, len(args))
	op.Dest = destReg
	if destReg != 0 && !code.HasResult() {
		return errf(line, "%s produces no result; '-> r%d' is invalid", code, destReg)
	}

	if code.HasResult() {
		if idPart == "" {
			return errf(line, "%s produces a result; write '%%N = %s ...'", code, code)
		}
		id, err := strconv.Atoi(strings.TrimPrefix(idPart, "%"))
		if err != nil || id < 0 {
			return errf(line, "bad op id %q", idPart)
		}
		if _, dup := byID[id]; dup {
			return errf(line, "duplicate op id %%%d", id)
		}
		op.ID = id
		blk.EnsureNextID(id)
		byID[id] = op
	} else if idPart != "" {
		return errf(line, "%s produces no result; drop the '%%N ='", code)
	}

	for i, a := range args {
		switch {
		case strings.HasPrefix(a, "%"):
			body := a[1:]
			residx := 0
			if dot := strings.IndexByte(body, '.'); dot >= 0 {
				ri, err := strconv.Atoi(body[dot+1:])
				if err != nil {
					return errf(line, "bad result index in %q", a)
				}
				residx = ri
				body = body[:dot]
			}
			id, err := strconv.Atoi(body)
			if err != nil {
				return errf(line, "bad op reference %q", a)
			}
			// A backward reference resolves now; forward references and
			// result indices wait for the block-end pass, which reports
			// their errors.
			if target, ok := byID[id]; ok && residx == 0 {
				op.Args[i] = ir.Operand{Kind: ir.FromOp, X: target}
				continue
			}
			pending(pendingRef{line, op, i, id, residx})
		case strings.HasPrefix(a, "r"):
			r, err := parseReg(line, a)
			if err != nil {
				return err
			}
			op.Args[i] = ir.Operand{Kind: ir.FromReg, Reg: r}
		case strings.HasPrefix(a, "#"):
			v, err := parseImm(line, a[1:])
			if err != nil {
				return err
			}
			op.Args[i] = ir.Operand{Kind: ir.Imm, Val: v}
		default:
			return errf(line, "bad operand %q (want %%N, rN or #imm)", a)
		}
	}
	return nil
}

func parseReg(line int, s string) (ir.Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, errf(line, "bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n <= 0 || n > 0xFFFF {
		return 0, errf(line, "bad register %q", s)
	}
	return ir.Reg(n), nil
}

func parseImm(line int, s string) (uint32, error) {
	if strings.HasPrefix(s, "-") {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < -(1<<31) {
			return 0, errf(line, "bad immediate %q", s)
		}
		return uint32(int32(v)), nil
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, errf(line, "bad immediate %q", s)
	}
	return uint32(v), nil
}

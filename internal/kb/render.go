package kb

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"strings"

	"kdb/internal/storage"
	"kdb/internal/term"
)

// A retrieve lists its answers as lines in byte order, the order
// sort.Strings gives the instantiated subjects, which the golden files,
// EXPERIMENTS.md and serve's JSON pin. render reaches that order without
// comparing lines. A line is the subject's fixed texts with an argument
// slot between each two, and a column is a variable's first slot. Two
// lines first differ in the first column whose constants render
// differently, so each column ranks its distinct constants once, by
// their rendering followed by the byte the line has after the slot, and
// the answers are ordered by their vectors of ranks.

// answerColumn is a variable of a retrieve's subject.
type answerColumn struct {
	j    int // the variable's position in the answer tuples
	slot int // its first slot in a line
	next int // the byte after that slot, -1 where the line ends there
	// rank holds each answer's rank; ranks counts the ranks.
	rank  []int32
	ranks int32
}

// answerSlot is an argument slot of a line. Its segments are the slot's
// renderings, each followed by the fixed text after the slot and, in the
// first slot, preceded by the text the line starts with: segment
// base+rank.
type answerSlot struct {
	col           int
	before, after span // in answerRender.buf
	base          int
}

// span is where a text lies in a buffer.
type span struct{ start, end int32 }

// answerRender is render's working state.
type answerRender struct {
	tuples []storage.Tuple
	// buf holds the line's fixed texts, then the segments.
	buf      []byte
	segments []span
	// scratch is 3n+1 entries: a column's hash table, then the sort of
	// its renderings, then the answer order.
	scratch []int32
}

// render lays out a retrieve's answers once, in byte order, into one
// text. RetrieveLines slices the lines from it at its newlines when it
// is first called; where a line holds a newline itself (a symbol can),
// render slices them at once, where each line ends.
//
// Each column numbers its answers' constants through a hash table keyed
// by their words (term.Term.Hash, confirmed by ==), renders each
// distinct constant once and ranks the renderings, equal
// renderings equal (Sym("3") and Num(3)); a stable counting sort per
// column, last column first, orders the answers. The text is then
// written at its exact size, a segment per slot.
//
// render sorts whole lines by their bytes instead (renderByBytes) for one
// answer; when a column looks distinct (sampleDistinct), since ranking a
// column of about a constant per answer costs more than sorting the
// lines; and when one of a column's renderings and its next byte are a
// proper prefix of another's (only a symbol holding ", " or ")" makes
// one), where the ranks cannot order the lines. Its allocations do not
// grow with the number of answers when a column's renderings are of even
// width.
func (r *ExecResult) render() {
	subject, res := r.subject, r.Retrieve
	n := len(res.Tuples)
	if n == 1 || n >= math.MaxInt32/4 {
		r.renderByBytes() // the scratch numbers answers in int32
		return
	}
	// The line's layout, as Atom.AppendTo writes it: fixed text k is
	// lay[bound[k]:bound[k+1]], and slot k lies between fixed texts k and
	// k+1. A constant argument is part of a fixed text.
	var layBuf [128]byte
	var boundBuf [10]int32
	var slotBuf [8]answerSlot
	var colBuf [8]answerColumn
	lay, bound, slots, cols := layBuf[:0], append(boundBuf[:0], 0), slotBuf[:0], colBuf[:0]
	for pos, t := range subject.Args {
		lay = subject.AppendFixed(lay, pos)
		j := -1
		if t.IsVar() {
			j = slices.Index(res.Vars, t)
		}
		if j < 0 {
			lay = t.AppendTo(lay)
			continue
		}
		c := slices.IndexFunc(cols, func(c answerColumn) bool { return c.j == j })
		if c < 0 {
			c = len(cols)
			cols = append(cols, answerColumn{j: j, slot: len(slots)})
		}
		slots = append(slots, answerSlot{col: c})
		bound = append(bound, int32(len(lay)))
	}
	if len(cols) == 0 || slices.ContainsFunc(cols, func(c answerColumn) bool { return sampleDistinct(res.Tuples, c.j) }) {
		r.renderByBytes()
		return
	}
	lay = subject.AppendFixed(lay, len(subject.Args))
	bound = append(bound, int32(len(lay)))
	for c := range cols {
		cols[c].next = -1
		if after := lay[bound[cols[c].slot+1]:bound[cols[c].slot+2]]; len(after) > 0 {
			cols[c].next = int(after[0])
		}
	}
	// The last slot's segments end the line.
	lay = append(lay, '\n')
	bound[len(bound)-1]++
	slots[0].before = span{0, bound[1]}
	for s := range slots {
		slots[s].after = span{bound[s+1], bound[s+2]}
	}

	// Number the columns; size the segments by the first answer's widths.
	arena := make([]int32, len(cols)*n+3*n+1)
	a := answerRender{tuples: res.Tuples, scratch: arena[len(cols)*n:]}
	size, segments := len(lay), 0
	var probe [32]byte
	for c := range cols {
		col := &cols[c]
		col.rank = arena[c*n : (c+1)*n]
		a.number(col)
		w := len(res.Tuples[0][col.j].AppendTo(probe[:0]))
		for _, s := range slots {
			if s.col == c {
				size += int(col.ranks) * (w + int(s.before.end-s.before.start+s.after.end-s.after.start))
				segments += int(col.ranks)
			}
		}
	}
	a.buf = append(make([]byte, 0, size), lay...)
	a.segments = make([]span, 0, segments)
	for c := range cols {
		if !a.rank(&cols[c], &slots[cols[c].slot]) {
			r.renderByBytes()
			return
		}
	}
	for s := range slots {
		if col := &cols[slots[s].col]; col.slot != s {
			a.renderSlot(col, &slots[s], &slots[col.slot])
		}
	}
	if len(a.buf) > math.MaxInt32 {
		r.renderByBytes() // the segments' int32 offsets wrapped
		return
	}
	order := a.order(cols)

	total := 0
	for s := range slots {
		total += a.bytes(&cols[slots[s].col], &slots[s])
	}
	var b strings.Builder
	b.Grow(total)
	for _, i := range order {
		for s := range slots {
			b.Write(a.segment(&cols[slots[s].col], &slots[s], i))
		}
	}
	r.text = b.String()[:total-1]
	if strings.Count(r.text, "\n") == n-1 {
		return // RetrieveLines slices the lines at the newlines
	}
	r.lines = make([]string, n)
	start := 0
	for x, i := range order {
		end := start
		for s := range slots {
			end += len(a.segment(&cols[slots[s].col], &slots[s], i))
		}
		r.lines[x] = r.text[start : end-1]
		start = end
	}
}

// sampleDistinct reports whether 256 answers spread evenly over the
// answers, or all of them where there are fewer, hold a distinct
// constant each in column j. render then takes the column to hold about
// a constant per answer and sorts the lines by their bytes: ranking such
// a column is a sort of as many renderings as there are lines, on top of
// hashing every answer. In succ(X, Y) over 1 000 and 10 000 answers in
// random order, ranking cost 1.5 to 2.8 times the byte sort where one
// column held a symbol per answer, about the same where the larger held
// one per two answers, and 0.3 to 0.6 times at one per four or fewer. A
// wrong guess costs time, never the order, and a column of fewer than
// 256 constants repeats in any 256 answers, so it is always ranked.
func sampleDistinct(tuples []storage.Tuple, j int) bool {
	const samples = 256
	var table [2 * samples]int32 // sampled answer+1
	m := min(len(tuples), samples)
	for x := range m {
		i := x * (len(tuples) / m)
		t := tuples[i][j]
		for h := t.Hash() % (2 * samples); ; h = (h + 1) % (2 * samples) {
			if table[h] == 0 {
				table[h] = int32(i) + 1
				break
			}
			if tuples[table[h]-1][j] == t {
				return false
			}
		}
	}
	return true
}

// number gives each answer the number of its constant in column col,
// constants numbered in the order they first occur, and sets col.ranks
// to how many there are. The hash table is scratch: the largest power of
// two up to 3n entries, each the first answer holding its constant plus
// one.
func (a *answerRender) number(col *answerColumn) {
	table := a.scratch[:1<<(bits.Len(uint(3*len(a.tuples)))-1)]
	clear(table)
	mask := uint64(len(table) - 1)
	ids, d := col.rank, int32(0)
	for i, tup := range a.tuples {
		t := tup[col.j]
		for h := t.Hash() & mask; ; h = (h + 1) & mask {
			first := table[h] - 1
			if first < 0 {
				table[h], ids[i] = int32(i)+1, d
				d++
				break
			}
			if a.tuples[first][col.j] == t {
				ids[i] = ids[first]
				break
			}
		}
	}
	col.ranks = d
}

// rank renders the segments of column col's first slot s once per
// numbered constant, sorts the constants by their rendering followed by
// the line's next byte, and rewrites each answer's constant number into
// the rank of its rendering: equal renderings rank equal, and rank r's
// segment is s.base+r. It reports false when a rendering and its next
// byte are a proper prefix of another's: those lines differ only after
// the slot, and the ranks cannot order them. It reports false too when
// the segments outgrow their int32 offsets.
func (a *answerRender) rank(col *answerColumn, s *answerSlot) bool {
	d := col.ranks
	at := a.scratch[:d+1] // where constant k's segment starts
	byText := a.scratch[d+1 : 2*d+1]
	rankOf := a.scratch[2*d+1 : 3*d+1]
	k := int32(0)
	for i, tup := range a.tuples {
		if col.rank[i] == k {
			at[k] = int32(len(a.buf))
			a.appendSegment(s, tup[col.j])
			k++
		}
	}
	if len(a.buf) > math.MaxInt32 {
		return false // the offsets wrapped
	}
	at[d] = int32(len(a.buf))
	// A key is the rendering and the next byte, if the line has one.
	lead, trail := s.before.end-s.before.start, s.after.end-s.after.start
	if col.next >= 0 {
		trail--
	}
	key := func(k int32) []byte { return a.buf[at[k]+lead : at[k+1]-trail] }
	for k := range byText {
		byText[k] = int32(k)
	}
	slices.SortFunc(byText, func(x, y int32) int { return bytes.Compare(key(x), key(y)) })
	s.base = len(a.segments)
	for x, k := range byText {
		if x > 0 {
			// Sorted, prev is no greater than cur: equal, a proper prefix,
			// or different before either ends.
			prev, cur := key(byText[x-1]), key(k)
			if bytes.HasPrefix(cur, prev) {
				if len(prev) == len(cur) {
					rankOf[k] = rankOf[byText[x-1]]
					continue
				}
				if col.next >= 0 {
					return false
				}
			}
		}
		rankOf[k] = int32(len(a.segments) - s.base)
		a.segments = append(a.segments, span{at[k], at[k+1]})
	}
	col.ranks = int32(len(a.segments) - s.base)
	for i, k := range col.rank {
		col.rank[i] = rankOf[k]
	}
	return true
}

// renderSlot renders the segments of slot s, whose column col ranks in
// slot first, a segment per rank copied from there.
func (a *answerRender) renderSlot(col *answerColumn, s, first *answerSlot) {
	s.base = len(a.segments)
	for _, p := range a.segments[first.base : first.base+int(col.ranks)] {
		start := int32(len(a.buf))
		text := a.buf[p.start+first.before.end-first.before.start : p.end-first.after.end+first.after.start]
		a.buf = append(append(append(a.buf, a.text(s.before)...), text...), a.text(s.after)...)
		a.segments = append(a.segments, span{start, int32(len(a.buf))})
	}
}

// appendSegment appends t's segment in slot s to buf.
func (a *answerRender) appendSegment(s *answerSlot, t term.Term) {
	buf := t.AppendTo(append(a.buf, a.buf[s.before.start:s.before.end]...))
	a.buf = append(buf, buf[s.after.start:s.after.end]...)
}

// text is the fixed text of the line at sp.
func (a *answerRender) text(sp span) []byte { return a.buf[sp.start:sp.end] }

// segment is answer i's segment in slot s of column col.
func (a *answerRender) segment(col *answerColumn, s *answerSlot, i int32) []byte {
	p := a.segments[s.base+int(col.rank[i])]
	return a.buf[p.start:p.end]
}

// bytes is the length of slot s's segments over every answer.
func (a *answerRender) bytes(col *answerColumn, s *answerSlot) int {
	segments := a.segments[s.base:]
	n := 0
	for _, k := range col.rank {
		n += int(segments[k].end - segments[k].start)
	}
	return n
}

// order sorts the answers by their ranks in the ranked columns, a stable
// counting sort per column, last column first, and returns the answers in
// that order. It uses the first 2n entries of scratch and, while it
// counts, the ranks of a column beyond them.
func (a *answerRender) order(ranked []answerColumn) []int32 {
	n := len(a.tuples)
	order, next := a.scratch[:n], a.scratch[n:2*n]
	for i := range order {
		order[i] = int32(i)
	}
	for c := len(ranked) - 1; c >= 0; c-- {
		rank := ranked[c].rank
		if ranked[c].ranks == 1 {
			continue
		}
		start := a.scratch[2*n : 2*n+int(ranked[c].ranks)+1]
		clear(start)
		for _, i := range order {
			start[rank[i]+1]++
		}
		for r := 1; r < len(start); r++ {
			start[r] += start[r-1]
		}
		for _, i := range order {
			next[start[rank[i]]] = i
			start[rank[i]]++
		}
		order, next = next, order
	}
	return order
}

// lineSpan is where one rendered answer lies in renderByBytes' buffer.
type lineSpan struct{ start, end int }

// renderByBytes renders every answer's line whole and sorts the lines by
// their bytes, render's path where ranks do not pay or cannot order the
// lines.
func (r *ExecResult) renderByBytes() {
	subject, res := r.subject, r.Retrieve
	var argBuf [8]term.Term
	var fromBuf [8]int
	a := term.Atom{Pred: subject.Pred, Args: append(argBuf[:0], subject.Args...)}
	from := fromBuf[:0] // the tuple position per argument, -1 for none
	for _, t := range subject.Args {
		j := -1
		if t.IsVar() {
			j = slices.Index(res.Vars, t)
		}
		from = append(from, j)
	}
	instantiate := func(tup storage.Tuple) term.Atom {
		for pos, j := range from {
			if j >= 0 {
				a.Args[pos] = tup[j]
			}
		}
		return a
	}
	var first [128]byte
	if len(res.Tuples) == 1 {
		r.text = string(instantiate(res.Tuples[0]).AppendTo(first[:0]))
		if strings.Contains(r.text, "\n") {
			r.lines = []string{r.text}
		}
		return
	}
	// The first line, measured in a stack buffer, sizes the buffer: lines
	// of even width fill it exactly, and a wider one grows it as append
	// does.
	width := len(instantiate(res.Tuples[0]).AppendTo(first[:0]))
	buf := make([]byte, 0, width*len(res.Tuples))
	spans := make([]lineSpan, len(res.Tuples))
	for i, tup := range res.Tuples {
		start := len(buf)
		buf = instantiate(tup).AppendTo(buf)
		spans[i] = lineSpan{start, len(buf)}
	}
	slices.SortFunc(spans, func(x, y lineSpan) int {
		return bytes.Compare(buf[x.start:x.end], buf[y.start:y.end])
	})
	var b strings.Builder
	b.Grow(len(buf) + len(spans) - 1)
	for i, s := range spans {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.Write(buf[s.start:s.end])
	}
	r.text = b.String()
	if strings.Count(r.text, "\n") == len(spans)-1 {
		return // RetrieveLines slices the lines at the newlines
	}
	r.lines = make([]string, len(spans))
	off := 0
	for i, s := range spans {
		end := off + s.end - s.start
		r.lines[i] = r.text[off:end]
		off = end + 1
	}
}

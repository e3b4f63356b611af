// Package chaos is a deterministic fault-and-crash test harness for
// the durable knowledge base. A scenario runs its tenants on one
// simulated disk (fault.SimDisk) and drives seeded random workloads
// (assert / load / retract / retrieve / explain / checkpoint / close)
// across them while the disk fails writes, fsyncs, truncates and
// renames, and now and then the machine loses power: the disk keeps
// only what was synced, plus for each unsynced tail nothing, a torn
// prefix or all of it, drawn from the scenario's rng, and every tenant
// recovers from it. After every recovery the harness checks the
// durability contract:
//
//   - the reopened KB holds exactly one of the consistent durable
//     states the model predicted — no torn facts, no phantoms;
//   - retract tombstones that were acknowledged survive recovery;
//   - only structured errors (ErrClosed, ErrDurability, injected
//     faults) ever escape an operation;
//   - in-RAM query results always match the model's RAM state, even
//     while the WAL underneath is poisoned.
//
// The model is reactive: it never peeks at the disk's faults but
// classifies each operation by its returned error. An acknowledged
// write is durable; a write failing with ErrDurability changed RAM
// only, unless it poisoned the log, when its record may have reached
// the disk; a failed checkpoint forks the set of possible durable
// states (the snapshot may or may not have been published) and a
// reopen collapses it to whichever state the disk actually held.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"syscall"

	"kdb/internal/fault"
	"kdb/internal/governor"
	"kdb/internal/kb"
	"kdb/internal/parser"
	"kdb/internal/storage"
	"kdb/internal/term"
)

// rulesProgram is reloaded after every reopen (rules are not
// persisted by the store). The seed fact keeps the edge predicate
// defined for the load-time analyzer even on an empty store.
const rulesProgram = `
	edge(a, a).
	path(X, Y) :- edge(X, Y).
	path(X, Z) :- edge(X, Y), path(Y, Z).
`

// seedKey is the model key of the seed fact rulesProgram asserts.
const seedKey = "a,a"

// alphabet is where the constant domain is cut from; model keys assume
// one-letter names.
const alphabet = "abcdefghijklmnopqrstuvwxyz"

// Config parameterizes one chaos scenario.
type Config struct {
	// Seed makes the whole scenario deterministic; print it on failure.
	Seed int64
	// Ops is the number of workload operations per tenant-interleaved
	// run (default 150).
	Ops int
	// Tenants is how many independent KBs the scenario interleaves
	// (default 2).
	Tenants int
	// Domain is how many constants facts draw from, so Domain² possible
	// edges (default 6, at most 26).
	Domain int
	// RetractPct is the share of operations, in percent, that retract
	// (default 15). The other operations keep their proportions. A
	// larger domain with a larger share crash-tests deletion from
	// relations big enough to have posting lists worth maintaining.
	RetractPct int
	// Dir is the root of the tenants' directories, one each, on the
	// scenario's simulated disk; nothing reaches the real one.
	Dir string
	// Trace, when set, receives one line per operation — the repro log
	// for a failing seed.
	Trace func(format string, args ...any)
}

// factSet is one candidate durable state.
type factSet map[string]bool

func (s factSet) clone() factSet {
	out := make(factSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s factSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s factSet) equal(o factSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// machine is what a scenario's tenants share: the disk they live on,
// the rng and each other. A crash is the machine's, so it takes every
// tenant down.
type machine struct {
	disk    *fault.SimDisk
	rng     *rand.Rand
	tenants []*tenant
}

// tenant is one KB under test plus its model state.
type tenant struct {
	m          *machine
	name       string
	dir        string
	k          *kb.KB
	trace      func(format string, args ...any)
	syms       string // the constant domain, one letter each
	retractPct int    // percent of operations that retract
	// ram is what queries must see right now.
	ram factSet
	// states are the candidate durable fact sets; a reopen must observe
	// exactly one of them. Multiple candidates exist only between a
	// failed checkpoint and the next successful checkpoint or reopen.
	states []factSet
	// walLast is the last acknowledged record per fact in the current
	// WAL era (+1 insert, -1 tombstone), kept since the last successful
	// checkpoint. It predicts the replay-over-new-snapshot candidate: a
	// checkpoint that dies between snapshot rename and WAL reset leaves
	// the new snapshot AND the old log on disk, and replaying the log
	// resurrects facts that were durably inserted but whose retract
	// tombstone never made it (and re-kills durably tombstoned facts
	// that were re-inserted only in RAM).
	walLast map[string]int8
}

// Run executes one seeded scenario and returns the first invariant
// violation, or nil.
func Run(cfg Config) error {
	if cfg.Ops <= 0 {
		cfg.Ops = 150
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 2
	}
	if cfg.Domain <= 0 {
		cfg.Domain = 6
	}
	if cfg.RetractPct <= 0 {
		cfg.RetractPct = 15
	}
	m := &machine{disk: fault.NewSimDisk(), rng: rand.New(rand.NewSource(cfg.Seed))}
	defer fault.SetDisk(fault.SetDisk(m.disk)) // the previous disk comes back when Run returns

	tenants := make([]*tenant, cfg.Tenants)
	m.tenants = tenants
	for i := range tenants {
		tn := &tenant{
			m:          m,
			name:       fmt.Sprintf("t%d", i),
			dir:        fmt.Sprintf("%s/t%d", cfg.Dir, i),
			trace:      cfg.Trace,
			syms:       alphabet[:min(cfg.Domain, len(alphabet))],
			retractPct: cfg.RetractPct,
			ram:        factSet{},
			states:     []factSet{{}},
			walLast:    map[string]int8{},
		}
		if tn.trace == nil {
			tn.trace = func(string, ...any) {}
		}
		if err := tn.open(); err != nil {
			return err
		}
		tenants[i] = tn
	}
	defer func() {
		for _, tn := range tenants {
			if tn.k != nil {
				_ = tn.k.Close()
			}
		}
	}()

	for op := 0; op < cfg.Ops; op++ {
		tn := tenants[m.rng.Intn(len(tenants))]
		if err := tn.step(m.rng); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	// A final crash: the recovery invariant must hold whatever
	// mid-flight state the workload left behind.
	if err := m.crash(); err != nil {
		return fmt.Errorf("final crash: %w", err)
	}
	for _, tn := range tenants {
		if err := tn.k.Close(); err != nil {
			return fmt.Errorf("%s: final close: %w", tn.name, err)
		}
		tn.k = nil
	}
	return nil
}

// step runs one weighted random operation: a retract with the
// configured probability, otherwise one of the rest.
func (tn *tenant) step(rng *rand.Rand) error {
	if rng.Intn(100) < tn.retractPct {
		return tn.retract(tn.randomPair(rng))
	}
	switch n := rng.Intn(85); {
	case n < 24:
		return tn.assert(tn.randomPair(rng))
	case n < 30:
		return tn.load(rng)
	case n < 45:
		return tn.verifyEdges(rng)
	case n < 52:
		return tn.verifyPaths()
	case n < 59:
		return tn.explain(rng)
	case n < 69:
		return tn.armFault(rng)
	case n < 79:
		return tn.checkpoint()
	case n < 82:
		return tn.m.crash()
	default:
		return tn.closeAndRecover()
	}
}

func (tn *tenant) randomPair(rng *rand.Rand) (string, string) {
	x, y := rng.Intn(len(tn.syms)), rng.Intn(len(tn.syms))
	return tn.syms[x : x+1], tn.syms[y : y+1]
}

func edgeAtom(x, y string) term.Atom {
	return term.Atom{Pred: "edge", Args: []term.Term{term.Sym(x), term.Sym(y)}}
}

// open (re)opens the tenant's KB and reloads the rules program,
// folding the program's seed fact into the model.
func (tn *tenant) open() error {
	k, err := kb.Open(tn.dir)
	if err != nil {
		return fmt.Errorf("%s: open: %w", tn.name, err)
	}
	tn.k = k
	if err := k.LoadString(rulesProgram); err != nil {
		return fmt.Errorf("%s: reload program: %w", tn.name, err)
	}
	// The load (re)asserted the seed fact; on a fresh WAL the append
	// succeeds, so it is durable in every candidate state.
	if !tn.ram[seedKey] {
		tn.walLast[seedKey] = 1 // fresh: the load appended a log record
	}
	tn.ram[seedKey] = true
	for _, s := range tn.states {
		s[seedKey] = true
	}
	return nil
}

// classify checks the structured-errors-only invariant: an operation
// may succeed, or fail with one of the documented error classes —
// anything else (a raw I/O error, a torn internal state) is a bug.
func classify(opName string, err error) (durability bool, _ error) {
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, storage.ErrDurability):
		return true, nil
	case errors.Is(err, fault.ErrInjected):
		// An injected fault that escaped without the durability tag:
		// legal only off the write path (a close flushing a poisoned
		// log).
		return false, nil
	case errors.Is(err, kb.ErrClosed), errors.Is(err, governor.ErrCanceled):
		return false, nil
	default:
		var le *governor.LimitError
		if errors.As(err, &le) {
			return false, nil
		}
		return false, fmt.Errorf("%s: unstructured error escaped: %w", opName, err)
	}
}

// assert inserts edge(x, y), updating the model by the outcome: an
// acknowledged insert is durable everywhere; a durability failure
// changed RAM only (the WAL frame was rewound), unless the rewind
// failed too and poisoned the log, leaving the frame on disk for a
// crash to keep or lose.
func (tn *tenant) assert(x, y string) error {
	key := x + "," + y
	healthy := tn.k.DurabilityErr() == nil
	err := tn.k.Assert(edgeAtom(x, y))
	tn.trace("%s assert %s,%s err=%v", tn.name, x, y, err)
	durability, cerr := classify(tn.name+": assert", err)
	if cerr != nil {
		return cerr
	}
	switch {
	case err == nil:
		if tn.ram[key] {
			return nil // duplicate: satisfied in RAM, WAL untouched
		}
		tn.ram[key] = true
		tn.walLast[key] = 1
		for _, s := range tn.states {
			s[key] = true
		}
	case durability:
		tn.ram[key] = true
		if healthy && tn.k.DurabilityErr() != nil {
			tn.fork(func(s factSet) { s[key] = true })
		}
	default:
		return fmt.Errorf("%s: assert edge(%s, %s): unexpected class %v", tn.name, x, y, err)
	}
	return nil
}

// load inserts a handful of edges (more over a larger domain) as one
// program. The store logs a load's facts as one batch, acknowledged as
// a unit: success makes every new fact durable. A durability failure
// leaves the whole batch in RAM and, on disk, some prefix of its new
// facts — none after a rewind, the records framed before the torn one
// after a mid-batch crash — so the model forks one candidate per prefix
// and then crashes the tenant on the spot, letting the disk say which
// it was.
func (tn *tenant) load(rng *rand.Rand) error {
	var src strings.Builder
	var fresh []string // the batch's new facts, in log order
	seen := map[string]bool{}
	for n := 2 + rng.Intn(len(tn.syms)); n > 0; n-- {
		x, y := tn.randomPair(rng)
		fmt.Fprintf(&src, "edge(%s, %s). ", x, y)
		if key := x + "," + y; !tn.ram[key] && !seen[key] {
			seen[key] = true
			fresh = append(fresh, key)
		}
	}
	err := tn.k.LoadString(src.String())
	tn.trace("%s load %serr=%v", tn.name, src.String(), err)
	durability, cerr := classify(tn.name+": load", err)
	if cerr != nil {
		return cerr
	}
	switch {
	case err == nil:
		for _, key := range fresh {
			tn.ram[key] = true
			tn.walLast[key] = 1
			for _, s := range tn.states {
				s[key] = true
			}
		}
		return nil
	case durability:
		before := tn.states
		tn.states = nil
		for _, s := range before {
			for p := 0; p <= len(fresh); p++ {
				c := s.clone()
				for _, key := range fresh[:p] {
					c[key] = true
				}
				tn.addState(c)
			}
		}
		for _, key := range fresh {
			tn.ram[key] = true
		}
		if err := tn.m.crash(); err != nil {
			return err
		}
		for _, key := range fresh {
			if tn.ram[key] {
				tn.walLast[key] = 1 // it survived: its record is in the log
			}
		}
		return nil
	default:
		return fmt.Errorf("%s: load %s: unexpected class %v", tn.name, src.String(), err)
	}
}

// retract removes edge(x, y): an acknowledged tombstone is durable
// everywhere; a durability failure removed the fact from RAM while
// the durable copy (if any) survives — or may not, if the failure
// poisoned the log with the tombstone on disk.
func (tn *tenant) retract(x, y string) error {
	key := x + "," + y
	healthy := tn.k.DurabilityErr() == nil
	removed, err := tn.k.Retract(edgeAtom(x, y))
	tn.trace("%s retract %s,%s removed=%v err=%v", tn.name, x, y, removed, err)
	durability, cerr := classify(tn.name+": retract", err)
	if cerr != nil {
		return cerr
	}
	switch {
	case err == nil && removed:
		delete(tn.ram, key)
		tn.walLast[key] = -1
		for _, s := range tn.states {
			delete(s, key)
		}
	case err == nil:
		if tn.ram[key] {
			return fmt.Errorf("%s: retract edge(%s, %s) reported absent but model has it in RAM", tn.name, x, y)
		}
	case durability:
		delete(tn.ram, key)
		if healthy && tn.k.DurabilityErr() != nil {
			tn.fork(func(s factSet) { delete(s, key) })
		}
	default:
		return fmt.Errorf("%s: retract edge(%s, %s): unexpected class %v", tn.name, x, y, err)
	}
	return nil
}

// verifyEdges checks that a retrieve sees exactly the model's RAM
// state — including while the WAL is poisoned: reads must keep
// serving the in-RAM relations — by a full scan and by one indexed
// probe, which also leaves an index built for later retracts to
// maintain.
func (tn *tenant) verifyEdges(rng *rand.Rand) error {
	got, err := tn.queryPairs("retrieve edge(X, Y).")
	if err != nil {
		return err
	}
	if !got.equal(tn.ram) {
		return fmt.Errorf("%s: retrieve edge mismatch: got %v, want %v", tn.name, got.sorted(), tn.ram.sorted())
	}
	x, _ := tn.randomPair(rng)
	got, err = tn.queryPairs(fmt.Sprintf("retrieve edge(%s, Y).", x))
	if err != nil {
		return err
	}
	want := factSet{}
	for key := range tn.ram {
		if strings.HasPrefix(key, x+",") {
			want[key] = true
		}
	}
	if !got.equal(want) {
		return fmt.Errorf("%s: retrieve edge(%s, Y) mismatch: got %v, want %v", tn.name, x, got.sorted(), want.sorted())
	}
	return nil
}

// verifyPaths checks the derived relation against the transitive
// closure of the model's RAM edges.
func (tn *tenant) verifyPaths() error {
	got, err := tn.queryPairs("retrieve path(X, Y).")
	if err != nil {
		return err
	}
	want := closure(tn.ram)
	if !got.equal(want) {
		return fmt.Errorf("%s: retrieve path mismatch: got %v, want %v", tn.name, got.sorted(), want.sorted())
	}
	return nil
}

// explain asks for the provenance of a derivable path fact and
// requires at least one derivation tree.
func (tn *tenant) explain(rng *rand.Rand) error {
	reach := closure(tn.ram).sorted()
	if len(reach) == 0 {
		return nil
	}
	key := reach[rng.Intn(len(reach))]
	var x, y string
	fmt.Sscanf(key, "%1s,%1s", &x, &y)
	res, err := tn.k.ExecStringContext(context.Background(), fmt.Sprintf("explain path(%s, %s).", x, y))
	if _, cerr := classify(tn.name+": explain", err); cerr != nil {
		return cerr
	}
	if err != nil {
		return nil
	}
	if res.Explanation == nil || len(res.Explanation.Trees) == 0 {
		return fmt.Errorf("%s: explain path(%s, %s): no derivation for a derivable fact", tn.name, x, y)
	}
	return nil
}

// queryPairs runs a retrieve and returns the answers as a factSet.
func (tn *tenant) queryPairs(stmt string) (factSet, error) {
	res, err := tn.k.ExecStringContext(context.Background(), stmt)
	if _, cerr := classify(tn.name+": query", err); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %s: %w", tn.name, stmt, err)
	}
	q, ok := res.Query.(*parser.Retrieve)
	if !ok || res.Retrieve == nil {
		return nil, fmt.Errorf("%s: %s: no retrieve result", tn.name, stmt)
	}
	out := factSet{}
	for _, a := range res.Retrieve.Atoms(q.Subject) {
		if len(a.Args) != 2 {
			return nil, fmt.Errorf("%s: %s: unexpected answer %v", tn.name, stmt, a)
		}
		out[a.Args[0].Name()+","+a.Args[1].Name()] = true
	}
	return out, nil
}

// armFault makes one of the next few disk operations of a random kind
// fail. The model does not remember what was armed — every operation
// classifies its own outcome — so the fault may hit any tenant, or
// none before the next crash disarms it.
func (tn *tenant) armFault(rng *rand.Rand) error {
	choices := []struct {
		op    fault.Op
		errno syscall.Errno
	}{
		{fault.OpSync, syscall.EIO},
		{fault.OpWrite, syscall.ENOSPC},
		{fault.OpTruncate, syscall.EIO},
		{fault.OpSyncDir, syscall.EIO},
		{fault.OpRename, syscall.EIO},
	}
	c := choices[rng.Intn(len(choices))]
	skip := rng.Intn(3)
	tn.trace("arm %s skip %d %v", c.op, skip, c.errno)
	tn.m.disk.Fail(c.op, skip, 1, c.errno)
	return nil
}

// checkpoint folds the WAL into a snapshot. Success collapses the
// candidate durable states to RAM (including facts whose WAL append
// had failed — the snapshot captures RAM) and starts a fresh WAL era.
// Failure forks the candidates: depending on where it died, the
// durable state is unchanged, is the new snapshot alone (WAL emptied
// before the crash point), or is the new snapshot with the OLD log
// still behind it — in which case the next recovery replays that log
// over the snapshot, resurrecting durably-inserted facts whose
// retract never reached the log and re-killing durably-tombstoned
// facts that lived only in RAM.
func (tn *tenant) checkpoint() error {
	err := tn.k.Checkpoint()
	tn.trace("%s checkpoint err=%v", tn.name, err)
	durability, cerr := classify(tn.name+": checkpoint", err)
	if cerr != nil {
		return cerr
	}
	switch {
	case err == nil:
		tn.states = []factSet{tn.ram.clone()}
		tn.walLast = map[string]int8{}
	case durability:
		tn.addState(tn.ram.clone())
		tn.addState(tn.replayCandidate())
	default:
		return fmt.Errorf("%s: checkpoint: unexpected class %v", tn.name, err)
	}
	return nil
}

// fork adds, for every candidate durable state, that state with change
// applied: the effect of a failed write whose record may be on disk.
func (tn *tenant) fork(change func(factSet)) {
	for _, s := range append([]factSet(nil), tn.states...) {
		c := s.clone()
		change(c)
		tn.addState(c)
	}
}

// addState appends a candidate durable state unless an equal one is
// already tracked, keeping the fork set small across repeated
// checkpoint failures.
func (tn *tenant) addState(s factSet) {
	for _, have := range tn.states {
		if have.equal(s) {
			return
		}
	}
	tn.states = append(tn.states, s)
}

// replayCandidate predicts the durable state when a failed checkpoint
// published its snapshot but left the old WAL intact: recovery loads
// the snapshot (= RAM now) and then replays the old log over it. The
// log's last record per fact wins; facts untouched by the log keep
// their snapshot membership.
func (tn *tenant) replayCandidate() factSet {
	out := factSet{}
	for k := range tn.ram {
		if tn.walLast[k] != -1 {
			out[k] = true
		}
	}
	for k, v := range tn.walLast {
		if v == 1 {
			out[k] = true
		}
	}
	return out
}

// crash cuts the power: the disk keeps what was synced, and each
// unsynced tail keeps nothing, a torn prefix or all of it, a third of
// the time each, drawn from the scenario's rng. Every tenant's handle
// dies with it (no Close, no flush), and every tenant reopens from the
// disk: the observed fact set must equal exactly one candidate durable
// state, and the model then collapses onto the observation.
func (m *machine) crash() error {
	m.disk.Crash(func(n int) int {
		switch m.rng.Intn(3) {
		case 0:
			return 0
		case 1:
			if n > 1 {
				return 1 + m.rng.Intn(n-1)
			}
		}
		return n
	})
	for _, tn := range m.tenants {
		tn.trace("%s crash", tn.name)
		tn.k = nil
		if err := tn.recover(); err != nil {
			return err
		}
	}
	return nil
}

// closeAndRecover is the clean variant: Close flushes and releases
// the store, and reopening must still land on a candidate state. The
// faulty environment does not outlive the close: pending faults are
// disarmed so recovery itself runs clean.
func (tn *tenant) closeAndRecover() error {
	tn.m.disk.Heal()
	tn.trace("%s clean close", tn.name)
	err := tn.k.Close()
	if _, cerr := classify(tn.name+": close", err); cerr != nil {
		return cerr
	}
	tn.k = nil
	return tn.recover()
}

// recover reopens the store and enforces the recovery invariant.
func (tn *tenant) recover() error {
	k, err := kb.Open(tn.dir)
	if err != nil {
		return fmt.Errorf("%s: reopen: %w", tn.name, err)
	}
	tn.trace("%s recover", tn.name)
	observed := factSet{}
	for _, a := range k.Store().Facts("edge") {
		observed[a.Args[0].Name()+","+a.Args[1].Name()] = true
	}
	matched := false
	for _, s := range tn.states {
		if observed.equal(s) {
			matched = true
			break
		}
	}
	if !matched {
		var cands [][]string
		for _, s := range tn.states {
			cands = append(cands, s.sorted())
		}
		k.Close()
		return fmt.Errorf("%s: recovered state %v matches no candidate durable state %v", tn.name, observed.sorted(), cands)
	}
	// Collapse: disk has spoken. RAM now equals the durable state.
	// walLast is NOT cleared: reopening does not reset the log, so the
	// era's records are still on disk and still shape the replay
	// candidate of any future failed checkpoint. (If the log was in
	// fact emptied by a mid-reset crash, the stale entries merely add
	// an unreachable candidate — over-approximation is safe.)
	tn.ram = observed.clone()
	tn.states = []factSet{observed}
	tn.k = k
	if err := k.LoadString(rulesProgram); err != nil {
		return fmt.Errorf("%s: reload program: %w", tn.name, err)
	}
	if !tn.ram[seedKey] {
		tn.walLast[seedKey] = 1 // fresh: the load appended a log record
	}
	tn.ram[seedKey] = true
	for _, s := range tn.states {
		s[seedKey] = true
	}
	return nil
}

// closure computes the transitive closure of the edge set: the model
// prediction for the derived path relation.
func closure(edges factSet) factSet {
	adj := make(map[string][]string)
	for k := range edges {
		var x, y string
		fmt.Sscanf(k, "%1s,%1s", &x, &y)
		adj[x] = append(adj[x], y)
	}
	out := factSet{}
	for start := range adj {
		// DFS from start over the edge relation.
		stack := append([]string(nil), adj[start]...)
		seen := map[string]bool{}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !out[start+","+n] {
				out[start+","+n] = true
			}
			if !seen[n] {
				seen[n] = true
				stack = append(stack, adj[n]...)
			}
		}
	}
	return out
}

package main

// durable: the storage layer used for writing — assert, retract and
// index maintenance beside probes, with WAL append and fsync, snapshots
// and replay — on a KB opened under a directory inside the checkout.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"kdb"
	"kdb/internal/storage"
	"kdb/internal/term"
)

const (
	// durableStudents is the preloaded registrar size at -scale 1.
	durableStudents = 1500
	// durableBacklog is how many asserted facts wait in the FIFO before
	// the op that asserts twelve more retracts the twelve oldest, so the
	// enroll relation stays at its loaded size plus the backlog.
	durableBacklog = 240
	writesPerOp    = 12
	checkpointOps  = 50 // a checkpoint closes every cycle of this many ops
	epilogueWrites = 2000
	recoverOpens   = 5
)

type durableInstance struct {
	dir string
	u   *registrar
	r   *rand.Rand
	kb  *libKB

	// The model the references are read from: who is enrolled where.
	byCourse  map[string]map[string]bool
	byStudent map[string]map[string]bool
	fifo      [][2]string // asserted (student, course) pairs, oldest first
	epilogue  int         // writes left in the log before the timed reopens

	// File-size accounting for wal_bytes_per_user_byte.
	walBytes, snapBytes, userBytes int64

	// side mirrors the enroll relation in a second durable store, so the
	// traced pass can time the storage call under Assert and Retract on
	// the same tuples (an assert repeated on the KB itself would be a
	// duplicate and skip the log).
	side    *storage.Store
	sideDir string
}

// benchTempDir makes a scratch directory under bench/out, inside the
// checkout, for everything the durable workload writes.
func benchTempDir(prefix string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	base := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

func enrollAtom(p [2]string) term.Atom {
	return kdb.NewAtom("enroll", kdb.Sym(p[0]), kdb.Sym(p[1]))
}

func setupDurable(seed int64, scale float64) (instance, error) {
	r := subSeed(seed, "durable")
	u := genRegistrar(r, scaled(durableStudents, scale, 40))
	dir, err := benchTempDir("durable-")
	if err != nil {
		return nil, err
	}
	in := &durableInstance{dir: dir, u: u, r: r, epilogue: scaled(epilogueWrites, scale, 50), byCourse: map[string]map[string]bool{}, byStudent: map[string]map[string]bool{}}
	k, err := kdb.Open(dir)
	if err != nil {
		in.close()
		return nil, err
	}
	in.kb = &libKB{k: k, counts: &evalCounts{}}
	if err := k.LoadString(u.program()); err != nil {
		in.close()
		return nil, err
	}
	for c, students := range u.enroll {
		for _, s := range students {
			in.model(s, c, true)
		}
	}
	for i := 0; i < durableBacklog; i++ {
		if err := k.Assert(enrollAtom(in.fresh())); err != nil {
			in.close()
			return nil, err
		}
	}
	if err := k.Checkpoint(); err != nil {
		in.close()
		return nil, err
	}
	in.userBytes = 0 // the account starts with the first op
	return in, nil
}

// model records one enrolment change.
func (in *durableInstance) model(student, course string, present bool) {
	if in.byCourse[course] == nil {
		in.byCourse[course] = map[string]bool{}
	}
	if in.byStudent[student] == nil {
		in.byStudent[student] = map[string]bool{}
	}
	if present {
		in.byCourse[course][student] = true
		in.byStudent[student][course] = true
	} else {
		delete(in.byCourse[course], student)
		delete(in.byStudent[student], course)
	}
}

// fresh draws an enrolment that is not in the model yet, records it, and
// queues it for a later retract.
func (in *durableInstance) fresh() [2]string {
	for {
		p := [2]string{in.u.students[in.r.Intn(len(in.u.students))].name, in.u.courses[in.r.Intn(len(in.u.courses))]}
		if !in.byCourse[p[1]][p[0]] {
			in.model(p[0], p[1], true)
			in.fifo = append(in.fifo, p)
			in.userBytes += int64(len(enrollAtom(p).String()) + 1)
			return p
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// write performs one assert or retract through the KB and checks its
// outcome. In the traced pass the same change is then applied to the
// side store, timed as the storage call under the KB call.
func (in *durableInstance) write(p [2]string, retract bool, tr *tracer, root, op int) opResult {
	kind, a := "assert", enrollAtom(p)
	if retract {
		kind = "retract"
	}
	var id int
	if tr != nil {
		id = tr.begin("stmt", root, op)
	}
	var err error
	removed := true
	if retract {
		removed, err = in.kb.k.Retract(a)
	} else {
		err = in.kb.k.Assert(a)
	}
	if tr != nil {
		tr.end(id)
		kid := tr.alias("kb."+kind, id)
		if retract {
			// Untraced ops do not reach the side store; make sure the
			// timed delete finds its tuple.
			_, sideErr := in.side.InsertAtom(a)
			must(sideErr)
		}
		sid := tr.begin("storage.write", kid, op)
		var sideErr error
		if retract {
			_, sideErr = in.side.DeleteAtom(a)
		} else {
			_, sideErr = in.side.InsertAtom(a)
		}
		tr.end(sid)
		must(sideErr)
	}
	if err != nil || !removed {
		reportFailure("%s %v: removed=%v err=%v", kind, a, removed, err)
		return opResult{1, 1}
	}
	return opResult{1, 0}
}

func (in *durableInstance) op(_, i int, lvl checkLevel, tr *tracer) opResult {
	var root int
	if tr != nil {
		root = tr.begin("op", 0, i+1)
		defer tr.end(root)
		if in.side == nil {
			must(in.openSide())
		}
	}
	var res opResult
	for w := 0; w < writesPerOp; w++ {
		res.add(in.write(in.fresh(), false, tr, root, i+1))
	}
	for w := 0; w < writesPerOp; w++ {
		p := in.fifo[0]
		in.fifo = in.fifo[1:]
		in.model(p[0], p[1], false)
		in.userBytes += int64(len(enrollAtom(p).String()) + 1)
		res.add(in.write(p, true, tr, root, i+1))
	}
	// Eight indexed point reads and the paper's Example 1 join, all
	// checked against the model as it stands after this op's writes.
	for rd := 0; rd < 8; rd++ {
		s := in.u.students[in.r.Intn(len(in.u.students))].name
		var lines []string
		for _, c := range sortedKeys(in.byStudent[s]) {
			lines = append(lines, fmt.Sprintf("enroll(%s, %s)", s, c))
		}
		res.add(in.kb.exec(&stmt{text: fmt.Sprintf("retrieve enroll(%s, C).", s), want: expectLines(lines)}, lvl, tr, root, i+1))
	}
	join := stmt{text: "retrieve honor(X) where enroll(X, databases).", want: in.u.honorEnrolled(sortedKeys(in.byCourse["databases"]))}
	res.add(in.kb.exec(&join, lvl, tr, root, i+1))

	if (i+1)%checkpointOps == 0 {
		res.add(in.checkpoint())
	}
	return res
}

// checkpoint closes a cycle: the log's growth and the snapshot written
// are added to the bytes-written account.
func (in *durableInstance) checkpoint() opResult {
	in.walBytes += fileSize(filepath.Join(in.dir, "kdb.wal"))
	if err := in.kb.k.Checkpoint(); err != nil {
		reportFailure("checkpoint: %v", err)
		return opResult{1, 1}
	}
	in.snapBytes += fileSize(filepath.Join(in.dir, "kdb.snap"))
	return opResult{1, 0}
}

// enrolment is the reference for `retrieve enroll(X, Y).`: the model.
func (in *durableInstance) enrolment() expect {
	var lines []string
	for c, students := range in.byCourse {
		for s := range students {
			lines = append(lines, fmt.Sprintf("enroll(%s, %s)", s, c))
		}
	}
	return expectLines(lines)
}

// finish is the epilogue: checkpoint, a burst of further writes that
// stay in the log, close, then timed reopens (snapshot load plus log
// replay), each checked against the model.
func (in *durableInstance) finish(m map[string]float64) opResult {
	res := in.checkpoint()
	for w := 0; w < in.epilogue; w++ {
		res.add(in.write(in.fresh(), false, nil, 0, 0))
	}
	in.walBytes += fileSize(filepath.Join(in.dir, "kdb.wal"))
	total := in.kb.k.FactCount()
	if err := in.kb.k.Close(); err != nil {
		reportFailure("close: %v", err)
		res.add(opResult{1, 1})
	}
	all := stmt{text: "retrieve enroll(X, Y).", want: in.enrolment()}
	var opens []float64
	for o := 0; o < recoverOpens; o++ {
		start := time.Now()
		k, err := kdb.Open(in.dir)
		opens = append(opens, float64(time.Since(start))/1e6)
		if err != nil {
			reportFailure("reopen: %v", err)
			return opResult{res.stmts + 1, res.failed + 1}
		}
		in.kb = &libKB{k: k, counts: &evalCounts{}}
		if got := k.FactCount(); got != total {
			reportFailure("reopen: %d facts, %d before close", got, total)
			res.add(opResult{1, 1})
		}
		res.add(in.kb.exec(&all, checkFull, nil, 0, 0))
		if o < recoverOpens-1 {
			if err := k.Close(); err != nil {
				reportFailure("close: %v", err)
				res.add(opResult{1, 1})
			}
		}
	}
	m["recover_ms"] = median(opens)
	m["wal_bytes_per_user_byte"] = ratio(float64(in.walBytes+in.snapBytes), float64(in.userBytes))
	return res
}

func (in *durableInstance) close() {
	if in.kb != nil {
		in.kb.k.Close() // error dropped: the directory is removed next
	}
	if in.side != nil {
		in.side.Close()
	}
	os.RemoveAll(in.dir)
	if in.sideDir != "" {
		os.RemoveAll(in.sideDir)
	}
}

// openSide builds the side store with the KB's current enroll relation.
func (in *durableInstance) openSide() error {
	dir, err := benchTempDir("durable-side-")
	if err != nil {
		return err
	}
	in.sideDir = dir
	if in.side, err = storage.Open(dir); err != nil {
		return err
	}
	for _, a := range in.kb.k.Store().Facts("enroll") {
		if _, err := in.side.InsertAtom(a); err != nil {
			return err
		}
	}
	return in.side.Checkpoint()
}

func (in *durableInstance) layers(m map[string]float64, sum spanSummary) {
	loadLayers(m, in.u.program())
	evalLayers(m, in.kb, nil, sum)
	enroll := in.kb.k.Store().Relation("enroll")
	var tuples []storage.Tuple
	enroll.Scan(func(t storage.Tuple) bool {
		tuples = append(tuples, t)
		return true
	})
	storageLayers(m, enroll, tuples)

	// The log's share of a durable insert: the side store's Insert on
	// fresh tuples against the same inserts into a memory store.
	mem := storage.NewMemory()
	var durableNS, memNS []float64
	before := fileSize(filepath.Join(in.sideDir, "kdb.wal"))
	const n = 200
	for i := 0; i < n; i++ {
		t := storage.Tuple{term.Sym(fmt.Sprintf("w%05d", i)), term.Sym("c01")}
		start := time.Now()
		_, err := in.side.Insert("enroll", t)
		mid := time.Now()
		must(err)
		_, err = mem.Insert("enroll", t)
		memNS = append(memNS, float64(time.Since(mid)))
		durableNS = append(durableNS, float64(mid.Sub(start)))
		must(err)
	}
	m["storage.wal_append_us"] = (median(durableNS) - median(memNS)) / 1e3
	m["storage.wal_bytes_per_write"] = float64(fileSize(filepath.Join(in.sideDir, "kdb.wal"))-before) / n

	m["storage.checkpoint_ms"] = timed(5, func() { must(in.side.Checkpoint()) }) / 1e6
	facts := 0
	for _, p := range in.side.Preds() {
		facts += in.side.Count(p)
	}
	m["storage.snapshot_bytes_per_fact"] = ratio(float64(fileSize(filepath.Join(in.sideDir, "kdb.snap"))), float64(facts))
	must(in.side.Close())
	in.side = nil
	m["storage.open_ms"] = timed(5, func() {
		st, err := storage.Open(in.sideDir)
		must(err)
		must(st.Close())
	}) / 1e6
}

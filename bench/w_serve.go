package main

// serve: the HTTP data plane. Statements are tens of microseconds, so
// HTTP, JSON, the prepared-statement cache, parsing, the per-statement
// fixed cost and readers against writers on the KB lock make up most of
// each request.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"

	"kdb"
	"kdb/internal/parser"
)

const (
	serveStudents = 120
	serveClients  = 2
	serveTenant   = "bench"
	// serveBacklog is how many of a client's asserted facts wait before
	// it retracts the oldest, so the relation size is stationary.
	serveBacklog = 8
	// writeCourse takes every asserted enrolment. No read names it, so
	// the reads' reference answers hold however the two clients'
	// requests interleave.
	writeCourse = "c29"
)

// request is one scripted HTTP request with its reference answer.
type request struct {
	route string // retrieve, describe, explain
	body  []byte
	// literal is the statement with its arguments filled in: what the
	// traced pass runs on the twin KB.
	literal string
	family  string
	want    expect
	// adhoc marks the request whose text is made unique per op, so it
	// always misses the prepared-statement cache.
	adhoc bool
}

func queryBody(stmt string, args ...string) []byte {
	b, err := json.Marshal(map[string]any{"stmt": stmt, "args": args})
	must(err)
	return b
}

type serveClient struct {
	http    *http.Client
	order   []int // this client's order over the script's slots
	fifo    []string
	written int
	twin    *libKB // traced pass: the same program in-process
}

type serveInstance struct {
	u       *registrar
	program string
	srv     *kdb.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	reg     *kdb.MetricsRegistry
	script  []request
	clients []*serveClient

	requests, shed, respBytes atomic.Int64
	counts                    evalCounts // shared by the clients' twin KBs
}

// writeSlots is how many of an op's sixteen requests are writes (two
// asserts, two retracts); slot indices past the script mean "write".
const writeSlots = 4

// serveScript builds the twelve reads of an op.
func serveScript(r *rand.Rand, u *registrar) []request {
	var script []request
	point := "retrieve student($1, M, G)."
	for k := 0; k < 4; k++ {
		i := r.Intn(len(u.students))
		script = append(script, request{route: "retrieve", body: queryBody(point, u.students[i].name),
			literal: fmt.Sprintf("retrieve student(%s, M, G).", u.students[i].name), want: expectLines([]string{u.studentFact(i)})})
	}
	ex1 := "retrieve honor(X) where enroll(X, $1)."
	for k := 0; k < 3; k++ {
		c := u.courses[k]
		script = append(script, request{route: "retrieve", body: queryBody(ex1, c),
			literal: fmt.Sprintf("retrieve honor(X) where enroll(X, %s).", c), want: u.honorEnrolled(u.enroll[c])})
	}
	i := r.Intn(len(u.students))
	script = append(script, request{route: "retrieve", adhoc: true,
		literal: fmt.Sprintf("retrieve student(%s, M, G)", u.students[i].name), want: expectLines([]string{u.studentFact(i)})})

	fams := paperFamilies()
	ex3, ex6 := fams[1].stmts[0], recursiveFamilies()[0].stmts[0]
	script = append(script,
		request{route: "describe", body: queryBody(ex3.text), literal: ex3.text, family: "paper", want: ex3.want},
		request{route: "describe", body: queryBody(ex6.text), literal: ex6.text, family: "recursive", want: ex6.want})

	ta := u.canTA()
	for _, c := range u.complete {
		if ta[[2]string{c.student, c.course}] {
			text := fmt.Sprintf("explain can_ta(%s, %s).", c.student, c.course)
			script = append(script, request{route: "explain", body: queryBody(text), literal: text,
				want: expectLines([]string{fmt.Sprintf("can_ta(%s, %s)", c.student, c.course)})})
			break
		}
	}
	var all []string
	for i := range u.students {
		all = append(all, u.studentFact(i))
	}
	listing := "retrieve student(X, M, G)."
	return append(script, request{route: "retrieve", body: queryBody(listing), literal: listing, want: expectLines(all)})
}

func setupServe(seed int64, scale float64) (instance, error) {
	r := subSeed(seed, "serve")
	u := genRegistrar(r, scaled(serveStudents, scale, 40))
	in := &serveInstance{u: u, program: u.program(), reg: kdb.NewMetricsRegistry(), served: make(chan struct{})}
	in.script = serveScript(r, u)

	srv, err := kdb.NewServer(kdb.ServerConfig{Registry: in.reg})
	if err != nil {
		return nil, err
	}
	in.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String() + "/v1/kb/" + serveTenant + "/"
	in.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(in.served)
		in.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	for c := 0; c < serveClients; c++ {
		cl := &serveClient{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
		cl.order = subSeed(seed, fmt.Sprintf("serve-client-%d", c)).Perm(len(in.script) + writeSlots)
		in.clients = append(in.clients, cl)
	}
	load, err := json.Marshal(map[string]string{"program": in.program})
	must(err)
	status, body, err := in.post(in.clients[0], "load", load)
	if err != nil || status != http.StatusOK {
		in.close()
		return nil, fmt.Errorf("load: status %d, %v: %.200s", status, err, body)
	}
	// Each client starts with its backlog of asserted facts in place.
	for c, cl := range in.clients {
		for len(cl.fifo) < serveBacklog {
			if res := in.write(c, false, nil, 0, 0); res.failed > 0 {
				in.close()
				return nil, fmt.Errorf("backlog assert failed")
			}
		}
	}
	return in, nil
}

// post sends one request over the client's keep-alive connection and
// reads the whole response.
func (in *serveInstance) post(cl *serveClient, route string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, in.base+route, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// roundtrip is post plus the bookkeeping every request shares.
func (in *serveInstance) roundtrip(cl *serveClient, route string, body []byte, tr *tracer, root, op int) (int, []byte, int, error) {
	var id int
	if tr != nil {
		id = tr.begin("stmt", root, op)
	}
	status, out, err := in.post(cl, route, body)
	if tr != nil {
		tr.end(id)
	}
	in.requests.Add(1)
	in.respBytes.Add(int64(len(out)))
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		in.shed.Add(1)
	}
	return status, out, id, err
}

// handler re-sends a request straight into the server's handler, with no
// socket: what is left of the round trip is the network and the client.
func (in *serveInstance) handler(route string, body []byte, tr *tracer, parent, op int) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/kb/"+serveTenant+"/"+route, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := tr.begin("server.handler", parent, op)
	in.srv.Handler().ServeHTTP(rec, req)
	tr.end(id)
	if rec.Code != http.StatusOK {
		panic(fmt.Sprintf("bench: handler re-execution of %s: status %d: %s", route, rec.Code, rec.Body))
	}
	return id
}

func (in *serveInstance) query(c int, rq *request, i int, lvl checkLevel, tr *tracer, root, op int) opResult {
	cl := in.clients[c]
	body, literal := rq.body, rq.literal
	if rq.adhoc {
		// A qualifier that never filters, different on every op, so the
		// text is new to the prepared-statement cache each time.
		literal = fmt.Sprintf("%s where G > -%d.", rq.literal, 2*opID(c, i))
		body = queryBody(literal)
	}
	status, out, id, err := in.roundtrip(cl, rq.route, body, tr, root, op)
	var resp struct {
		Answers  []string `json:"answers"`
		Prepared bool     `json:"prepared"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(out, &resp)
	}
	text := "no answers"
	if len(resp.Answers) > 0 {
		text = strings.Join(resp.Answers, "\n")
	}
	switch {
	case err != nil || status != http.StatusOK:
		reportFailure("%s: status %d, %v: %.200s", literal, status, err, out)
		return opResult{1, 1}
	case len(resp.Answers) != rq.want.count:
		reportFailure("%s: %d answers, reference has %d", literal, len(resp.Answers), rq.want.count)
		return opResult{1, 1}
	case lvl == checkFull && canon(text) != rq.want.full:
		reportFailure("%s: answer differs from the reference\n got: %.400s\nwant: %.400s", literal, canon(text), rq.want.full)
		return opResult{1, 1}
	}
	if tr != nil {
		if rq.adhoc {
			// The round trip just cached this text; the handler gets a
			// sibling that is as new to the cache as the original was.
			literal = fmt.Sprintf("%s where G > -%d.", rq.literal, 2*opID(c, i)+1)
			body = queryBody(literal)
		}
		hid := in.handler(rq.route, body, tr, id, op)
		var q parser.Query
		if resp.Prepared {
			q, err = parser.ParseQuery(literal)
		} else {
			pid := tr.begin("parser", hid, op)
			q, err = parser.ParseQuery(literal)
			tr.end(pid)
		}
		must(err)
		cl.twin.decomposeQuery(q, rq.family, tr, hid, op)
	}
	return opResult{1, 0}
}

// write asserts the client's next fact or retracts its oldest.
func (in *serveInstance) write(c int, retract bool, tr *tracer, root, op int) opResult {
	cl := in.clients[c]
	route, fact := "assert", ""
	if retract {
		route, fact = "retract", cl.fifo[0]
		cl.fifo = cl.fifo[1:]
	} else {
		fact = fmt.Sprintf("enroll(w%d_%07d, %s)", c, cl.written, writeCourse)
		cl.written++
		cl.fifo = append(cl.fifo, fact)
	}
	body := func(f string) []byte {
		b, err := json.Marshal(map[string]string{"fact": f})
		must(err)
		return b
	}
	status, out, id, err := in.roundtrip(cl, route, body(fact), tr, root, op)
	var resp struct {
		OK      bool `json:"ok"`
		Removed bool `json:"removed"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(out, &resp)
	}
	if err != nil || status != http.StatusOK || !resp.OK || resp.Removed != retract {
		reportFailure("%s %s: status %d, %v: %.200s", route, fact, status, err, out)
		return opResult{1, 1}
	}
	if tr != nil {
		// The handler and the twin KB get the same change on a shadow
		// fact: repeating the original would be a duplicate (or already
		// gone) and take the short path.
		shadow := "enroll(x" + fact[len("enroll(w"):]
		a, err := kdb.ParseAtom(shadow)
		must(err)
		if retract {
			// The shadow of a fact asserted by an untraced op is not
			// there yet; put it in place, untimed.
			_, _, err := in.post(cl, "assert", body(shadow))
			must(err)
			must(cl.twin.k.Assert(a))
		}
		hid := in.handler(route, body(shadow), tr, id, op)
		kid := tr.begin("kb."+route, hid, op)
		if retract {
			_, err = cl.twin.k.Retract(a)
		} else {
			err = cl.twin.k.Assert(a)
		}
		tr.end(kid)
		must(err)
	}
	return opResult{1, 0}
}

func (in *serveInstance) op(c, i int, lvl checkLevel, tr *tracer) opResult {
	cl := in.clients[c]
	op := opID(c, i)
	var root int
	if tr != nil {
		root = tr.begin("op", 0, op)
		defer tr.end(root)
		if cl.twin == nil {
			// Built like a server tenant: metrics, activity registry and
			// statement statistics attached.
			twin, err := newLibKB(in.program, kdb.DescribeOptions{},
				kdb.WithMetrics(kdb.NewMetricsRegistry()), kdb.WithActivity(kdb.NewActivityRegistry()), kdb.WithQueryStats())
			must(err)
			twin.counts = &in.counts
			cl.twin = twin
		}
	}
	var res opResult
	writes := 0
	for _, slot := range cl.order {
		if slot < len(in.script) {
			res.add(in.query(c, &in.script[slot], i, lvl, tr, root, op))
			continue
		}
		// Two asserts, then two retracts.
		res.add(in.write(c, writes >= writeSlots/2, tr, root, op))
		writes++
	}
	return res
}

func (in *serveInstance) finish(map[string]float64) opResult { return opResult{} }

func (in *serveInstance) close() {
	if in.hs != nil {
		in.hs.Shutdown(ctx) // waits for the connections to drain
		<-in.served
	}
	for _, cl := range in.clients {
		cl.http.CloseIdleConnections()
	}
	in.srv.Close()
}

func (in *serveInstance) layers(m map[string]float64, sum spanSummary) {
	loadLayers(m, in.program)
	twin := in.clients[0].twin
	ruleLayers(m, twin.rules)
	var script []stmt
	for _, rq := range in.script {
		if !rq.adhoc {
			script = append(script, stmt{text: rq.literal})
		}
	}
	evalLayers(m, twin, script, sum)
	m["obs.on_ratio"] = obsOnRatio(replayOn(in.program, script))
	for _, name := range []string{"recursive", "paper"} {
		m["core."+name+"_us"] = sum.medianUS("core." + name)
	}

	m["server.roundtrip_us"] = sum.medianUS("stmt")
	m["server.handler_us"] = sum.medianUS("server.handler")
	m["server.net_us"] = median(sum.selfDurs["stmt"]) / 1e3
	m["server.overhead_us"] = median(sum.selfDurs["server.handler"]) / 1e3
	m["server.resp_bytes_per_req"] = ratio(float64(in.respBytes.Load()), float64(in.requests.Load()))
	m["server.shed_ratio"] = ratio(float64(in.shed.Load()), float64(in.requests.Load()))
	var hits, misses float64
	for _, p := range in.reg.Snapshot() {
		if p.Name == "kdb_server_prepared_total" {
			if p.Labels["result"] == "hit" {
				hits = p.Value
			} else {
				misses = p.Value
			}
		}
	}
	m["server.prepared_hit_ratio"] = ratio(hits, hits+misses)
}

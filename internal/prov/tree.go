package prov

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"kdb/internal/term"
)

// NodeKind classifies one node of a derivation tree.
type NodeKind uint8

const (
	// NodeDerived is an IDB fact with a recorded witness; its children
	// are the instantiated body of the rule that fired.
	NodeDerived NodeKind = iota
	// NodeEDB is a stored (extensional) fact — a leaf, as in the
	// paper's derivation trees.
	NodeEDB
	// NodeBuiltin is a ground comparison that held (e.g. 3.9 > 3.7).
	NodeBuiltin
	// NodeCycle marks a fact already being expanded higher on the same
	// path; reconstruction cuts here, so a tree terminates even over
	// witnesses that support each other.
	NodeCycle
	// NodeUnknown is a fact with no witness and no stored tuple — the
	// recorder was bounded, or the fact came from outside the query.
	NodeUnknown
	// NodeTruncated replaces a subtree cut by the node budget.
	NodeTruncated
)

// String returns the leaf marker used in text rendering.
func (k NodeKind) String() string {
	switch k {
	case NodeDerived:
		return "derived"
	case NodeEDB:
		return "edb"
	case NodeBuiltin:
		return "builtin"
	case NodeCycle:
		return "cycle"
	case NodeUnknown:
		return "unknown"
	default:
		return "truncated"
	}
}

// Node is one node of a reconstructed derivation tree.
type Node struct {
	Fact term.Atom
	Kind NodeKind
	// Rule is the 1-based display id of the rule that derived Fact
	// (index+1 into Explanation.Rules); 0 for leaves.
	Rule int
	// Children are the instantiated body atoms of the firing rule, in
	// body order. Empty for leaves and for bodiless (axiom) rules.
	Children []*Node
}

// Explanation is the result of explaining one subject: a derivation
// tree per ground instance, plus the legend of rules the trees use,
// numbered in first-use (pre-order) order so the rendering is stable
// across engines.
type Explanation struct {
	Subject term.Atom
	Trees   []*Node
	Rules   []term.Rule
	// Entries is how many witnesses the evaluation recorded.
	Entries int
	// Nodes is the total node count across Trees.
	Nodes int
	// Truncated reports that the node budget cut at least one subtree.
	Truncated bool
}

// Explain reconstructs derivation trees for the given ground facts from
// the recorder's witnesses. isEDB reports whether an atom is a stored
// extensional fact (those become leaves even if a witness exists, e.g.
// facts of predicates that also have rules). maxNodes bounds the total
// node count across all trees; 0 means unbounded.
func (r *Recorder) Explain(subject term.Atom, facts []term.Atom, isEDB func(term.Atom) bool, maxNodes int) *Explanation {
	e := &Explanation{Subject: subject, Entries: r.Len()}
	b := &builder{
		rec:      r,
		isEDB:    isEDB,
		maxNodes: maxNodes,
		ruleIDs:  make(map[int]int),
		ruleKeys: make(map[string]int),
		onPath:   make(map[int]bool),
	}
	for _, f := range facts {
		e.Trees = append(e.Trees, b.build(f))
	}
	e.Rules = b.rules
	e.Nodes = b.nodes
	e.Truncated = b.truncated
	return e
}

type builder struct {
	rec       *Recorder
	isEDB     func(term.Atom) bool
	maxNodes  int
	nodes     int
	truncated bool
	ruleIDs   map[int]int    // recorder rule id → 1-based display id
	ruleKeys  map[string]int // display rule key → 1-based display id
	rules     []term.Rule
	onPath    map[int]bool // witnesses being expanded
}

func (b *builder) build(a term.Atom) *Node {
	b.nodes++
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		b.truncated = true
		return &Node{Fact: a, Kind: NodeTruncated}
	}
	if term.IsComparison(a) {
		return &Node{Fact: a, Kind: NodeBuiltin}
	}
	// A fact on the path was not stored when it was expanded, so the
	// store is asked first.
	if b.isEDB != nil && b.isEDB(a) {
		return &Node{Fact: a, Kind: NodeEDB}
	}
	_, _, i := b.rec.lookup(a)
	switch {
	case i < 0:
		return &Node{Fact: a, Kind: NodeUnknown}
	case b.onPath[i]:
		return &Node{Fact: a, Kind: NodeCycle}
	}
	w := b.rec.witnesses[i]
	s := &b.rec.rules[w.rule]
	n := &Node{Fact: a, Kind: NodeDerived, Rule: b.displayID(int(w.rule))}
	b.onPath[i] = true
	frame := b.rec.frame(i)
	for _, p := range s.body {
		n.Children = append(n.Children, b.build(s.ground(p, frame)))
	}
	delete(b.onPath, i)
	return n
}

// displayID numbers the rule interned as id in first-use order. Rules
// that display alike share a number: the semi-naive engine interns a
// rule once per runner, and a rule its statement calls with two sets of
// bound head positions has a runner for each.
func (b *builder) displayID(id int) int {
	if d, ok := b.ruleIDs[id]; ok {
		return d
	}
	r := b.rec.rules[id].rule
	key := r.Key()
	d, ok := b.ruleKeys[key]
	if !ok {
		b.rules = append(b.rules, r)
		d = len(b.rules)
		b.ruleKeys[key] = d
	}
	b.ruleIDs[id] = d
	return d
}

// WriteText renders the explanation as an indented tree followed by the
// rule legend, in the style of the tracer's console tree.
func (e *Explanation) WriteText(w io.Writer) error {
	var b strings.Builder
	if len(e.Trees) == 0 {
		fmt.Fprintf(&b, "no derivation: %s is not in the answer set\n", e.Subject)
	}
	for i, t := range e.Trees {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeNode(&b, t, 0)
	}
	if len(e.Rules) > 0 {
		b.WriteString("\nrules:\n")
		for i, r := range e.Rules {
			fmt.Fprintf(&b, "  r%d: %s\n", i+1, r)
		}
	}
	if e.Truncated {
		b.WriteString("\n(tree truncated by node budget)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeNode(b *strings.Builder, n *Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Fact.String())
	switch n.Kind {
	case NodeDerived:
		fmt.Fprintf(b, "  [r%d]", n.Rule)
	default:
		fmt.Fprintf(b, "  [%s]", n.Kind)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
}

// String renders the explanation as text.
func (e *Explanation) String() string {
	var b strings.Builder
	e.WriteText(&b) // strings.Builder never errors
	return b.String()
}

// jsonNode is the wire form of a derivation-tree node.
type jsonNode struct {
	Fact     string     `json:"fact"`
	Kind     string     `json:"kind"`
	Rule     int        `json:"rule,omitempty"`
	Children []jsonNode `json:"children,omitempty"`
}

func toJSONNode(n *Node) jsonNode {
	out := jsonNode{Fact: n.Fact.String(), Kind: n.Kind.String(), Rule: n.Rule}
	for _, c := range n.Children {
		out.Children = append(out.Children, toJSONNode(c))
	}
	return out
}

// MarshalJSON emits the subject, trees, and rule legend (1-based ids
// matching each node's "rule" field).
func (e *Explanation) MarshalJSON() ([]byte, error) {
	type wire struct {
		Subject   string     `json:"subject"`
		Trees     []jsonNode `json:"trees"`
		Rules     []string   `json:"rules,omitempty"`
		Entries   int        `json:"entries"`
		Nodes     int        `json:"nodes"`
		Truncated bool       `json:"truncated,omitempty"`
	}
	out := wire{
		Subject:   e.Subject.String(),
		Trees:     make([]jsonNode, 0, len(e.Trees)),
		Entries:   e.Entries,
		Nodes:     e.Nodes,
		Truncated: e.Truncated,
	}
	for _, t := range e.Trees {
		out.Trees = append(out.Trees, toJSONNode(t))
	}
	for _, r := range e.Rules {
		out.Rules = append(out.Rules, r.String())
	}
	return json.Marshal(out)
}

// WriteJSON writes the explanation as one indented JSON document.
func (e *Explanation) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/synth"
)

// sessionInput is everything the tier is sent about one session, generated
// from the seed inside the benchmark process. The program under test sees
// only these strings.
type sessionInput struct {
	ID        string
	FactsText string // opening base facts, concrete syntax
	WriteFact string // the edge every write on this session adds or retracts
}

// factsText renders atoms the way a client would type them.
func factsText(facts []ast.Atom) string {
	var sb strings.Builder
	for _, f := range facts {
		sb.WriteString(f.String())
		sb.WriteString(".\n")
	}
	return sb.String()
}

// sinkOf returns the one company that is owned but owns nothing: the end of
// a ControlChain, the jointly owned target of a ControlChainJoint.
func sinkOf(facts []ast.Atom) string {
	owners := map[string]bool{}
	for _, f := range facts {
		owners[f.Terms[0].Display()] = true
	}
	for _, f := range facts {
		if t := f.Terms[1].Display(); !owners[t] {
			return t
		}
	}
	return facts[len(facts)-1].Terms[1].Display()
}

// genSessions draws the session population of a serving workload. Chain
// lengths are uniform in [ChainMin, ChainMax]; Joint > 0 selects the
// chain-plus-joint-control shape.
func genSessions(w *workloadSpec, n int, seed int64) []*sessionInput {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*sessionInput, n)
	for i := range out {
		chain := w.ChainMin
		if w.ChainMax > w.ChainMin {
			chain += rng.Intn(w.ChainMax - w.ChainMin + 1)
		}
		sub := seed*100003 + int64(i)
		var sc synth.Scenario
		if w.Joint > 0 {
			sc = synth.ControlChainJoint(chain, w.Joint, sub)
		} else {
			sc = synth.ControlChain(chain, sub)
		}
		sink := sinkOf(sc.Facts)
		out[i] = &sessionInput{
			ID:        fmt.Sprintf("b%dx%d", seed, i),
			FactsText: factsText(sc.Facts),
			WriteFact: fmt.Sprintf("Own(%q, %q, 0.6).", sink, sink+"w"),
		}
	}
	return out
}

// queryOf turns an answer as the tier prints it, Control(A, B), into the
// concrete-syntax query /explain takes, Control("A", "B").
func queryOf(answer string) string {
	open := strings.IndexByte(answer, '(')
	if open < 0 || !strings.HasSuffix(answer, ")") {
		return answer
	}
	args := strings.Split(answer[open+1:len(answer)-1], ", ")
	for i, a := range args {
		args[i] = fmt.Sprintf("%q", a)
	}
	return answer[:open+1] + strings.Join(args, ", ") + ")"
}

// hashAnswers is an order-free digest of an answer list: the sum of the
// answers' FNV hashes plus the count. The online check compares the tier's
// answer set with the oracle's per response; answer order is compared byte
// for byte by the sequential replay check.
func hashAnswers(answers []string) uint64 {
	sum := uint64(len(answers)) * 0x9e3779b97f4a7c15
	for _, a := range answers {
		h := fnv.New64a()
		h.Write([]byte(a))
		sum += h.Sum64()
	}
	return sum
}

func hashExplanation(text, deterministic string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write([]byte(deterministic))
	return h.Sum64()
}

// oracle is the in-process sequential reference: one core.Pipeline with
// default configuration, one incremental.Maintainer per session, no server,
// no WAL, no concurrency.
type oracle struct {
	pipe *core.Pipeline
	mu   sync.Mutex
	sess map[string]*oracleSession
}

// oracleSession holds a session's two reachable states: without and with
// the write edge (every acknowledged write toggles it).
type oracleSession struct {
	base    []ast.Atom
	edge    []ast.Atom
	res     [2]*chase.Result
	answers [2][]string
	hash    [2]uint64
}

func newOracle() (*oracle, error) {
	pipe, err := apps.CompanyControl().Pipeline(core.Config{})
	if err != nil {
		return nil, err
	}
	return &oracle{pipe: pipe, sess: map[string]*oracleSession{}}, nil
}

func renderAnswers(res *chase.Result) []string {
	ids := res.Answers()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = res.Store.Get(id).String()
	}
	return out
}

// session computes (once) both states of a session.
func (o *oracle) session(in *sessionInput) (*oracleSession, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.sess[in.ID]; s != nil {
		return s, nil
	}
	base, err := parser.Parse(in.FactsText)
	if err != nil {
		return nil, fmt.Errorf("oracle: facts of %s: %w", in.ID, err)
	}
	edge, err := parser.Parse(in.WriteFact)
	if err != nil {
		return nil, fmt.Errorf("oracle: write fact of %s: %w", in.ID, err)
	}
	s := &oracleSession{base: base.Facts, edge: edge.Facts}
	m, err := o.pipe.Maintain(s.base...)
	if err != nil {
		return nil, err
	}
	// A result shares the maintainer's growing store, so each state's
	// answers are rendered before the next update.
	if s.res[0], err = m.Result(); err != nil {
		return nil, err
	}
	s.answers[0] = renderAnswers(s.res[0])
	if s.res[1], _, err = m.Update(s.edge, nil); err != nil {
		return nil, err
	}
	s.answers[1] = renderAnswers(s.res[1])
	for i := range s.res {
		s.hash[i] = hashAnswers(s.answers[i])
	}
	o.sess[in.ID] = s
	return s, nil
}

// explanation renders the reference explanation of one opening answer. No
// write changes it: the write edge hangs off the graph's sink, so every
// proof of an opening answer stays what it was.
func (o *oracle) explanation(s *oracleSession, answer string) (*core.Explanation, error) {
	return o.pipe.ExplainQuery(s.res[0], queryOf(answer))
}

// replay applies a session's acknowledged writes one at a time, the way the
// tier did, and returns the final fixpoint. It is the sequential check that
// does not rely on the two-state shortcut above.
func (o *oracle) replay(s *oracleSession, writes int) (*chase.Result, error) {
	m, err := o.pipe.Maintain(s.base...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < writes; i++ {
		if i%2 == 0 {
			_, _, err = m.Update(s.edge, nil)
		} else {
			_, _, err = m.Update(nil, s.edge)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: replaying write %d: %w", i+1, err)
		}
	}
	return m.Result()
}

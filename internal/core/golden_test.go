package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/synth"
	"repro/internal/term"
)

// goldenDigests pins, per scenario, SHA-256 digests of three renderings of
// every checkpoint the scenario passes through: the live engine's snapshot
// payload, a dump of every chase step (rule, fact, premises, bindings and
// aggregation contributors), and the ExplainAll texts. They were recorded on
// the map-based provenance representation and must not move when the
// representation changes: every byte a caller can observe stays put.
var goldenDigests = map[string][3]string{
	"stress-simple": {
		"3ccca9d3427486d5a222efbfe383ef6409629998f7edd088ba5d081a3c1dcb0e",
		"40c8fd8a47020fa9ac4008e8c8d1f90ba9e42e35fca4a3e86ff44de504cda250",
		"cb41b97300a7dd5c9b5823ebc27ce506c5743bb9f1b52675438dc27d75f7986b",
	},
	"company-control": {
		"c96f40bbd57b730aa18b50d86519295825cc3d31523785f065ac8b64bba95989",
		"7fac9092c67ab39cabf28a44339420ed8356892748dc9db8a6272af81e9615e6",
		"9eb0ab67c2086de21e33743ab7f76a6bdca4cbd8949e78fa50fa1638aaa24850",
	},
	"stress-test": {
		"90afb1bd517cc0ef338438dadb0e406bbe62ce9dc1ab1a7cb5fe25e29dd8de72",
		"6b698bcaa9c58f0a57292c2e4fa68306efb555f2ee07049f530a504d4734119e",
		"ef1cfaa66ccd381ed76703a554e6b0b2ccf7c460599729ad8a7fc4544236ce2f",
	},
	"close-link": {
		"58be59d721fc2091937a4cdf696432fc83410b1ca2da66fbfb363bcffa1fe825",
		"535395f30d29009c6869048bfbe9a05238958a3c3e972b2ed69db6a0b2bbb85b",
		"572d3a0769551dd46beb789ebe0ba005c3d8b0b1735d7192e13de2a63d78e9f0",
	},
	"golden-power": {
		"826832be15ff9810cf7e5cee79225133106264f7de4b9a57b8deb0bc03b87d42",
		"68c0e331dbe79f6d8a2eb7d15cb85f5c8304f773cddba8e6a0628def28b2a404",
		"56e2f04e60c8ba66bec16516bafd12c6d1a536a0897df27b0c95f3d2cbb07a65",
	},
	"chain-joint-toggle": {
		"e022d0ca8f3c9c4bdc7c2c60e125c241b6beaca6aa5cdde4df40c7dafda14449",
		"c7d1594adcc00a3eb7851ccdac6ed142e4050b95e9c45e3c5696dc9e88a9fd0b",
		"cd38a2a303741b204d20f62c3bc2666fa7e66e5b5cc9882d584fb3dd72543e82",
	},
	"random-what-if": {
		"c3d983eb49701da45dd30566218bb82f7bf9e28d4c0e265f56ef5c19c83a7ab1",
		"4c2ecffec7b49fbbd2f7f2a1f49e421fa2481af771cd416442bbeacdf981f64a",
		"822dd76c23248f1c4b419bc53f604f868c73408016043a232335f98ca7a451b8",
	},
	"existential-rederive": {
		"4530a495e5828402b91333fee031924b796cae8a1052072d548c12c2e286c23d",
		"43254b0bcbe4839f584a1fa6f07ada87848eba81d21dab92af0cf6d7338ded9e",
		"6817c73ddcf967778e124bd5c698fd7e7a372d1a8138a8a887a779cf231a2de1",
	},
	"rederive": {
		"7f360ed768a03d8e2396a506c1aba09356800634804295994b20242cf4716c3b",
		"3dd513c004bc8a88c30e65a437ff4520268d63715a75e80a91f8965c3bfadc6a",
		"1d2f4d288a10cc2c3f2d7fad2c511c3ba478fd5fc5a4cb98a98b57f401e36234",
	},
}

// golden feeds the checkpoints of one scenario into its three digests.
type golden struct {
	t                      *testing.T
	pipe                   *core.Pipeline
	m                      *incremental.Maintainer
	state, steps, explains hash.Hash
}

func newGolden(t *testing.T, pipe *core.Pipeline, facts []ast.Atom) *golden {
	t.Helper()
	m, err := pipe.Maintain(facts...)
	if err != nil {
		t.Fatal(err)
	}
	g := &golden{t: t, pipe: pipe, m: m, state: sha256.New(), steps: sha256.New(), explains: sha256.New()}
	g.checkpoint()
	return g
}

func (g *golden) update(add, retract []ast.Atom) incremental.UpdateStats {
	g.t.Helper()
	_, st, err := g.m.Update(add, retract)
	if err != nil {
		g.t.Fatal(err)
	}
	g.checkpoint()
	return st
}

// checkpoint hashes the maintainer's current state. The snapshot payload
// ends with the initial run's two wall-clock float64 fields, which are
// dropped: they are the only bytes that differ between identical runs.
func (g *golden) checkpoint() {
	g.t.Helper()
	payload, err := g.m.EncodeState()
	if err != nil {
		g.t.Fatal(err)
	}
	g.state.Write(payload[:len(payload)-16])
	res, err := g.m.Result()
	if err != nil {
		g.t.Fatal(err)
	}
	dumpSteps(g.steps, res)
	expls, err := g.pipe.ExplainAll(res)
	if err != nil {
		g.t.Fatal(err)
	}
	for _, e := range expls {
		fmt.Fprintf(g.explains, "%s\n%s\n%s\n", e.Fact, e.Text, e.Deterministic)
	}
}

func (g *golden) check(name string) {
	g.t.Helper()
	got := [3]string{hex.EncodeToString(g.state.Sum(nil)), hex.EncodeToString(g.steps.Sum(nil)), hex.EncodeToString(g.explains.Sum(nil))}
	want, ok := goldenDigests[name]
	if !ok {
		g.t.Fatalf("%s: no golden digests", name)
	}
	for i, what := range [3]string{"snapshot payload", "step dump", "explanations"} {
		if got[i] != want[i] {
			g.t.Errorf("%s: %s digest %s, want %s", name, what, got[i], want[i])
		}
	}
}

// dumpSteps writes every chase step with its bindings materialized and
// sorted by variable name; terms print with their constant type, so an int
// and a float of one value are told apart.
func dumpSteps(w io.Writer, res *chase.Result) {
	for _, d := range res.Steps {
		fmt.Fprintf(w, "%d %s %s %v %s\n", d.Step, d.Rule.Label, res.Store.Get(d.Fact), d.Premises, dumpSub(stepSub(d)))
		for _, c := range d.Contributors {
			fmt.Fprintf(w, "  %v %s %s\n", c.Premises, dumpTerm(c.Value), dumpSub(contribSub(c)))
		}
	}
}

func dumpSub(s term.Substitution) string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += n + "=" + dumpTerm(s[n]) + ";"
	}
	return out
}

func dumpTerm(t term.Term) string {
	return t.Key() + "/" + strconv.Itoa(int(t.ConstType()))
}

func stepSub(d *chase.Derivation) term.Substitution     { return d.Sub.Substitution() }
func contribSub(c chase.Contribution) term.Substitution { return c.Sub.Substitution() }

func TestGoldenApps(t *testing.T) {
	for _, app := range apps.All() {
		pipe, err := app.Pipeline(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		newGolden(t, pipe, app.Scenario()).check(app.Name)
	}
}

// TestGoldenChainJointToggle is a serving-tier session: a majority chain
// into a joint control, whose sink edge is written and unwritten twice.
func TestGoldenChainJointToggle(t *testing.T) {
	pipe, err := apps.CompanyControl().Pipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	facts := synth.ControlChainJoint(12, 3, 1).Facts
	sink := sinkOf(facts)
	edge := []ast.Atom{ast.NewAtom("Own", term.Str(sink), term.Str(sink+"w"), term.Float(0.6))}
	g := newGolden(t, pipe, facts)
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			g.update(edge, nil)
		} else {
			g.update(nil, edge)
		}
	}
	g.check("chain-joint-toggle")
}

// sinkOf is the company that is owned but owns nothing.
func sinkOf(facts []ast.Atom) string {
	owners := map[string]bool{}
	for _, f := range facts {
		owners[f.Terms[0].Display()] = true
	}
	for _, f := range facts {
		if s := f.Terms[1].Display(); !owners[s] {
			return s
		}
	}
	return facts[len(facts)-1].Terms[1].Display()
}

// TestGoldenRandomWhatIf is a smaller kg_batch cycle: eight what-if edges,
// each added and then retracted, chosen the way the benchmark chooses them.
func TestGoldenRandomWhatIf(t *testing.T) {
	pipe, err := apps.CompanyControl().Pipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	facts := synth.RandomControl(6, 200, 7).Facts
	g := newGolden(t, pipe, facts)
	for _, edge := range whatIfEdges(facts, 8) {
		g.update(edge, nil)
		g.update(nil, edge)
	}
	g.check("random-what-if")
}

// whatIfEdges gives the owner of the fact e/n of the way through the list a
// majority stake in the company the next other owner holds.
func whatIfEdges(facts []ast.Atom, n int) [][]ast.Atom {
	var out [][]ast.Atom
	for e := 0; e < n; e++ {
		at := e * len(facts) / n
		owner := facts[at].Terms[0]
		target := owner
		for k := 1; k < len(facts) && target.Equal(owner); k++ {
			if f := facts[(at+k)%len(facts)]; !f.Terms[0].Equal(owner) {
				target = f.Terms[1]
			}
		}
		out = append(out, []ast.Atom{ast.NewAtom("Own", owner, target, term.Float(0.9))})
	}
	return out
}

// TestGoldenRederive retracts the direct holding behind an integrated
// ownership that a two-hop chain also yields: the over-deleted MOwn fact
// comes back through goal-directed re-derivation, not through re-saturation.
func TestGoldenRederive(t *testing.T) {
	pipe, err := apps.CloseLink().Pipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	own := func(x, y string, s float64) ast.Atom {
		return ast.NewAtom("Own", term.Str(x), term.Str(y), term.Float(s))
	}
	direct := own("A", "C", 0.3)
	g := newGolden(t, pipe, []ast.Atom{own("A", "B", 0.5), own("B", "C", 0.6), direct, own("C", "D", 0.9)})
	st := g.update(nil, []ast.Atom{direct})
	if st.Rederived == 0 {
		t.Fatalf("retract rederived nothing: %+v", st)
	}
	g.update([]ast.Atom{direct}, nil)
	g.check("rederive")
}

const existSrc = `
@output("Holder").
@label("e1") Holder(X, Z) :- Listed(X).
@label("e2") Holder(X, Z) :- Filed(X).
@label("e3") Known(Z) :- Holder(X, Z).
`

const existGlossary = `
Listed(x): <x> is listed.
Filed(x): <x> has filed its accounts.
Holder(x, z): <z> holds shares of <x>.
Known(z): <z> is a known holder.
`

// TestGoldenExistentialRederive retracts the premise of a step that
// invented a labelled null: the fact comes back through Rederive by the
// second rule, its seed carrying the null into the recorded bindings.
func TestGoldenExistentialRederive(t *testing.T) {
	pipe, err := core.NewPipelineFromSource(existSrc, existGlossary, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	listed := ast.NewAtom("Listed", term.Str("a"))
	g := newGolden(t, pipe, []ast.Atom{listed, ast.NewAtom("Filed", term.Str("a")), ast.NewAtom("Listed", term.Str("b"))})
	if st := g.update(nil, []ast.Atom{listed}); st.Rederived == 0 {
		t.Fatalf("retract rederived nothing: %+v", st)
	}
	g.update([]ast.Atom{listed}, nil)
	g.check("existential-rederive")
}

const keyShareSrc = `
@output("Big").
@label("r1") Big(X) :- Val(X, V), V > 2.
@label("r2") Big(X) :- Alt(X, V), V > 2.
`

const keyShareGlossary = `
Val(x, v): <x> has a value of <v>.
Alt(x, v): <x> has an alternative value of <v>.
Big(x): <x> is big.
`

// TestKeySharingRederive: 3 and 3.0 share one dictionary key, and the
// dictionary holds whichever was interned first. Retracting Val("a", 3)
// brings Big("a") back through Rederive from Alt("a", 3.0), whose bound
// value resolves to the representative 3. The explanation must read the
// same as one rendered from the float, and the snapshot of that state must
// survive a restore byte for byte.
func TestKeySharingRederive(t *testing.T) {
	pipe, err := core.NewPipelineFromSource(keyShareSrc, keyShareGlossary, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	val := ast.NewAtom("Val", term.Str("a"), term.Int(3))
	alt := ast.NewAtom("Alt", term.Str("a"), term.Float(3.0))
	m, err := pipe.Maintain(val, alt)
	if err != nil {
		t.Fatal(err)
	}
	explain := func() string {
		res, err := m.Result()
		if err != nil {
			t.Fatal(err)
		}
		expls, err := pipe.ExplainAll(res)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, e := range expls {
			out += e.Text + "\n" + e.Deterministic + "\n"
		}
		return out
	}
	if got, want := explain(), "Given that a has a value of 3 and 3 is higher than 2, a is big.\n"+
		"Since a has a value of 3, and 3 is higher than 2, then a is big.\n"; got != want {
		t.Errorf("before the retract:\n%s\nwant:\n%s", got, want)
	}
	_, st, err := m.Update(nil, []ast.Atom{val})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rederived != 1 {
		t.Fatalf("Big(a) did not come back through Rederive: %+v", st)
	}
	if got, want := explain(), "Given that a has an alternative value of 3 and 3 is higher than 2, a is big.\n"+
		"Since a has an alternative value of 3, and 3 is higher than 2, then a is big.\n"; got != want {
		t.Errorf("after the rederive:\n%s\nwant:\n%s", got, want)
	}

	res, err := m.Result()
	if err != nil {
		t.Fatal(err)
	}
	last := res.Steps[len(res.Steps)-1]
	if v, ok := last.Sub.Lookup("V"); last.Rule.Label != "r2" || !ok || v.ConstType() != term.ConstInt {
		t.Errorf("rederived step %v binds V to %v, want the representative int 3", last, v)
	}

	payload, err := m.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	l, err := chase.RestoreLive(pipe.Program(), chase.Options{}, payload)
	if err != nil {
		t.Fatal(err)
	}
	again, err := l.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(payload) {
		t.Errorf("EncodeState after RestoreLive differs: %d vs %d bytes", len(again), len(payload))
	}
}

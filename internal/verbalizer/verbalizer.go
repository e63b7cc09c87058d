// Package verbalizer implements the deterministic transformation of Vadalog
// syntax into natural language described in Section 4.2 of the paper: each
// rule becomes a sentence of the form "Since {body}, then {head}.", with
// every element of the syntax converted to its natural-language counterpart
// ("and" for conjunction, "is higher than" for >, "<result> is given by the
// sum of <contributors>" for aggregations) and predicate atoms rendered via
// the domain glossary.
//
// The same machinery serves two purposes:
//
//   - applied with a token renderer to the rules of a reasoning path, it
//     produces the deterministic explanation templates of Section 4.2;
//   - applied with a value renderer to the chase steps of a proof, it
//     produces the fully deterministic instance explanation that the paper
//     feeds to the LLM baseline in its Sections 6.2-6.3.
package verbalizer

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/glossary"
	"repro/internal/term"
)

// Renderer maps a rule variable name to its textual rendering: a <token>
// when producing templates, a constant display when producing instance
// explanations.
type Renderer func(v string) string

// TokenRenderer renders variables as <token> placeholders, renaming them
// through the given map (variables absent from the map keep their name).
func TokenRenderer(rename map[string]string) Renderer {
	return func(v string) string {
		if name, ok := rename[v]; ok {
			return "<" + name + ">"
		}
		return "<" + v + ">"
	}
}

// ValueRenderer renders variables through their bindings in a substitution;
// unbound variables remain tokens.
func ValueRenderer(sub term.Substitution) Renderer {
	return func(v string) string {
		if t, ok := sub[v]; ok {
			return t.Display()
		}
		return "<" + v + ">"
	}
}

// DerivationRenderer renders variables of a chase step: group-level
// variables come from the step's bindings; contributor-varying
// variables of aggregation steps are rendered as the textual conjunction of
// their distinct values across contributors, in contributor order ("2 and
// 9", "C, B and F").
func DerivationRenderer(d *chase.Derivation) Renderer {
	return func(v string) string {
		if t, ok := d.Sub.Lookup(v); ok {
			return t.Display()
		}
		var vals []string
		seen := map[string]bool{}
		for _, c := range d.Contributors {
			if t, ok := c.Sub.Lookup(v); ok {
				disp := t.Display()
				if !seen[disp] {
					seen[disp] = true
					vals = append(vals, disp)
				}
			}
		}
		if len(vals) > 0 {
			return JoinList(vals)
		}
		return "<" + v + ">"
	}
}

// JoinList joins items as an English conjunction: "a", "a and b",
// "a, b and c".
func JoinList(items []string) string {
	switch len(items) {
	case 0:
		return ""
	case 1:
		return items[0]
	case 2:
		return items[0] + " and " + items[1]
	default:
		return strings.Join(items[:len(items)-1], ", ") + " and " + items[len(items)-1]
	}
}

// AggRendering controls how a rule's aggregation is verbalized.
type AggRendering struct {
	// Expand verbalizes the aggregator ("with <e> given by the sum of
	// <v>"); when false the aggregator is truncated, as the paper
	// prescribes for single-contributor reasoning paths.
	Expand bool
	// Contributors optionally overrides the rendering of the aggregated
	// variable with an explicit value list; when empty the Renderer is
	// used.
	Contributors []string
}

// AtomText renders an atom through the glossary: <param> tokens are
// substituted with the rendering of the variable (or the constant display)
// at the corresponding argument position.
func AtomText(a ast.Atom, g *glossary.Glossary, render Renderer) (string, error) {
	e, ok := g.Entry(a.Predicate)
	if !ok {
		return "", fmt.Errorf("verbalizer: no glossary entry for predicate %s", a.Predicate)
	}
	if e.Arity() != a.Arity() {
		return "", fmt.Errorf("verbalizer: glossary entry %s has arity %d, atom has %d", a.Predicate, e.Arity(), a.Arity())
	}
	return e.Render(func(pos int, param string) string {
		t := a.Terms[pos]
		if t.IsVariable() {
			return render(t.Name())
		}
		return t.Display()
	}), nil
}

// ConditionText renders a comparison: "<s> is higher than <p1>".
func ConditionText(c ast.Condition, render Renderer) string {
	return operandText(c.Left, render) + " " + c.Op.Words() + " " + operandText(c.Right, render)
}

// AssignmentText renders an arithmetic assignment: "<s> is given by <s1>
// multiplied by <s2>"; nested sub-expressions are parenthesized, e.g.
// "<l> is given by (<el> plus <es>) divided by 2".
func AssignmentText(a ast.Assignment, render Renderer) string {
	return render(a.Target) + " is given by " + ExprText(a.Expr, render)
}

// ExprText renders an arithmetic expression in natural language.
func ExprText(e ast.Expr, render Renderer) string {
	switch x := e.(type) {
	case ast.TermExpr:
		return operandText(x.T, render)
	case ast.BinaryExpr:
		return exprOperand(x.L, render) + " " + x.Op.Words() + " " + exprOperand(x.R, render)
	default:
		return e.String()
	}
}

func exprOperand(e ast.Expr, render Renderer) string {
	if _, ok := e.(ast.BinaryExpr); ok {
		return "(" + ExprText(e, render) + ")"
	}
	return ExprText(e, render)
}

// AggregationText renders an aggregation clause: "with <e> given by the sum
// of <v>" (or an explicit contributor list in place of <v>).
func AggregationText(g ast.Aggregation, render Renderer, contributors []string) string {
	over := render(g.Over)
	if len(contributors) > 0 {
		over = JoinList(contributors)
	}
	return "with " + render(g.Target) + " given by the " + g.Func.Words() + " of " + over
}

func operandText(t term.Term, render Renderer) string {
	if t.IsVariable() {
		return render(t.Name())
	}
	return t.Display()
}

// RuleSentence verbalizes one rule as "Since {body}, then {head}." The body
// conjoins atom descriptions, assignments and conditions with "and"; the
// aggregation clause, when expanded, follows the head.
func RuleSentence(r *ast.Rule, g *glossary.Glossary, render Renderer, agg AggRendering) (string, error) {
	var parts []string
	for _, a := range r.Body {
		text, err := AtomText(a, g, render)
		if err != nil {
			return "", fmt.Errorf("rule %s: %w", r.Label, err)
		}
		parts = append(parts, trimSentence(text))
	}
	for _, a := range r.Negated {
		text, err := AtomText(a, g, render)
		if err != nil {
			return "", fmt.Errorf("rule %s: %w", r.Label, err)
		}
		parts = append(parts, "it is not the case that "+trimSentence(text))
	}
	for _, as := range r.Assignments {
		parts = append(parts, AssignmentText(as, render))
	}
	for _, c := range r.Conditions {
		parts = append(parts, ConditionText(c, render))
	}
	head, err := AtomText(r.Head, g, render)
	if err != nil {
		return "", fmt.Errorf("rule %s: %w", r.Label, err)
	}
	sentence := "Since " + strings.Join(parts, ", and ") + ", then " + trimSentence(head)
	if r.Aggregation != nil && agg.Expand {
		sentence += ", " + AggregationText(*r.Aggregation, render, agg.Contributors)
	}
	return sentence + ".", nil
}

// trimSentence strips a trailing period and surrounding space from a
// glossary description so it can be embedded into a larger sentence.
func trimSentence(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), ".")
}

// VerbalizeProof produces the deterministic instance explanation of a
// proof: one sentence per chase step in chronological order, with all
// constants materialized. Aggregation steps with several contributors have
// the aggregator expanded with the full contributor value list, so the text
// provably contains every constant used in the inference (the completeness
// property of the paper's Section 6.3).
func VerbalizeProof(p *chase.Proof, g *glossary.Glossary) (string, error) {
	var sentences []string
	for _, d := range p.Steps {
		render := DerivationRenderer(d)
		agg := AggRendering{}
		if d.IsAggregation() && d.MultiContributor() {
			agg.Expand = true
			for _, c := range d.Contributors {
				agg.Contributors = append(agg.Contributors, c.Value.Display())
			}
		}
		s, err := RuleSentence(d.Rule, g, render, agg)
		if err != nil {
			return "", err
		}
		sentences = append(sentences, s)
	}
	return strings.Join(sentences, " "), nil
}

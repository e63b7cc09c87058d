package chase_test

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/parser"
)

// companyControlSrc is the paper's running company-control example: X
// controls Y when X directly owns a majority of Y, or when the companies X
// already controls jointly own a majority of Y (monotonic sum aggregation).
const companyControlSrc = `
@output("Control").
@label("s1") Control(X, X) :- Company(X).
@label("s2") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.

Company("A"). Company("B"). Company("C").
Own("A", "B", 0.6).
Own("A", "C", 0.3). Own("B", "C", 0.4).
`

// ExampleRun evaluates the company-control program sequentially: A controls
// B directly, and controls C through the joint 0.3 + 0.4 stake held with B.
func ExampleRun() {
	prog := parser.MustParse(companyControlSrc)
	res, err := chase.Run(prog, chase.Options{})
	if err != nil {
		panic(err)
	}
	for _, id := range res.Answers() {
		fmt.Println(res.Store.Get(id))
	}
	// Output:
	// Control(A, A)
	// Control(B, B)
	// Control(C, C)
	// Control(A, B)
	// Control(A, C)
}

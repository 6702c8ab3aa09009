package workload_test

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

// multiGoldenPath holds the output of the flat n-ary Independent Join
// (join.MultiIDJN, which NaryExec replaced and which wrote the file before
// its deletion) on the fixture workloads: θ=0.4 and a Scan on every side,
// run to exhaustion. NaryExec at TJ=0 must reproduce it bit for bit.
const multiGoldenPath = "testdata/multi_idjn.golden"

// multiFixtures are the workloads the fixture pins: the triple the n-ary
// executor tests share, the facade's three-way query (TestThreeWayShimGolden
// in the root package) and the larger triple of multi_test.go.
var multiFixtures = []struct {
	tasks []string
	docs  int
	seed  int64
}{
	{[]string{"HQ", "EX", "MG"}, 450, 33},
	{[]string{"MG", "HQ", "EX"}, 450, 9},
	{[]string{"HQ", "EX", "MG"}, 900, 21},
}

// renderMulti writes one fixture block: a header naming the workload, then
// every counter, with the cost-model time as its IEEE-754 bits.
func renderMulti(tasks []string, docs int, seed int64, st *join.MultiState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s docs=%d seed=%d]\n", strings.Join(tasks, ","), docs, seed)
	fmt.Fprintf(&b, "good %d\nbad %d\ntime %#016x %v\n", st.GoodTuples, st.BadTuples, math.Float64bits(st.Time), st.Time)
	for i := range st.DocsProcessed {
		fmt.Fprintf(&b, "side %d processed %d retrieved %d filtered %d queries %d\n",
			i, st.DocsProcessed[i], st.DocsRetrieved[i], st.DocsFiltered[i], st.Queries[i])
	}
	return b.String()
}

func scanSides(mw *workload.MultiWorkload) ([]*join.Side, []retrieval.Strategy) {
	sides := make([]*join.Side, len(mw.DBs))
	strats := make([]retrieval.Strategy, len(mw.DBs))
	for i := range mw.DBs {
		sides[i] = mw.Side(i, 0.4)
		strats[i] = mw.Scan(i)
	}
	return sides, strats
}

// TestNaryExecGoldenVsMultiIDJN is the golden parity test: at TJ=0 with no
// effort caps and no pipeline engine, the tree executor must reproduce the
// flat MultiIDJN execution bit for bit — every counter and the cost-model
// time — as the fixture records it.
func TestNaryExecGoldenVsMultiIDJN(t *testing.T) {
	const head = "# join.MultiIDJN, θ=0.4 and Scan on every side, run to exhaustion.\n"
	tree := head
	for _, fx := range multiFixtures {
		mw, err := workload.Multi(workload.Params{NumDocs: fx.docs, Seed: fx.seed}, fx.tasks)
		if err != nil {
			t.Fatal(err)
		}
		sides, strats := scanSides(mw)
		exec, err := join.NewNaryExec(sides, strats, join.NaryPlan{})
		if err != nil {
			t.Fatal(err)
		}
		nst, err := join.RunNary(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		tree += renderMulti(fx.tasks, fx.docs, fx.seed, nst.MultiState)
		// The root node's materialization count is the total output.
		if root := nst.NodeTuples[len(nst.NodeTuples)-1]; root != nst.GoodTuples+nst.BadTuples {
			t.Errorf("%v: root node tuples %d != good+bad %d", fx.tasks, root, nst.GoodTuples+nst.BadTuples)
		}
	}
	want, err := os.ReadFile(multiGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if tree != string(want) {
		t.Errorf("NaryExec output differs from %s:\n%s", multiGoldenPath, tree)
	}
}

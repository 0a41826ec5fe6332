package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/neurocard"
	"repro/internal/query"
	"repro/internal/table"
)

// The benchmark's scan must agree with the program's own workload labels on
// the program's rendering of its queries.
func TestDMVScanMatchesWorkloadLabels(t *testing.T) {
	d := genDMV(3000, 7)
	dir := t.TempDir()
	path := filepath.Join(dir, "dmv.csv")
	if err := d.writeCSV(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := table.LoadCSV(f, "dmv")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	w, err := query.GenerateWorkload(tbl, query.DefaultGeneratorConfig(), 11, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		ps, err := parseWhere(q.String(tbl), d.names)
		if err != nil {
			t.Fatalf("query %d %q: %v", i, q.String(tbl), err)
		}
		if got := d.count(ps); got != w.TrueCard[i] {
			t.Fatalf("query %d %q: scan counts %d, workload label %d", i, q.String(tbl), got, w.TrueCard[i])
		}
	}
	// The benchmark's own queries parse on the server side to the same
	// conjunction: the program's executor agrees with the scan.
	for i, s := range dmvQueries(d, 200, rand.New(rand.NewSource(3))) {
		q, err := query.ParseWhere(s, tbl)
		if err != nil {
			t.Fatalf("query %d %q: %v", i, s, err)
		}
		reg, err := query.Compile(q, tbl)
		if err != nil {
			t.Fatal(err)
		}
		ps, _ := parseWhere(s, d.names)
		if got, want := d.count(ps), query.Execute(reg, tbl); got != want {
			t.Fatalf("query %d %q: scan counts %d, program executes %d", i, s, got, want)
		}
	}
}

// The benchmark's hash join must agree with the program's nested-loop
// oracle on the spanned sub-join of every query.
func TestJoinHashJoinMatchesOracle(t *testing.T) {
	j := genJoin(150, 5)
	dir := t.TempDir()
	if _, err := j.write(dir); err != nil {
		t.Fatal(err)
	}
	sch, err := joinSchema(dir)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := neurocard.NewSampler(sch)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := smp.LayoutTable()
	if err != nil {
		t.Fatal(err)
	}
	oracle := neurocard.NewOracle(sch)
	if got, want := int64(len(j.itemOrder)), oracle.CountAll(); got != want {
		t.Fatalf("full join: %d item rows, oracle counts %d", got, want)
	}
	qs, truths := joinQueries(j, 150, rand.New(rand.NewSource(9)))
	for i, jq := range qs {
		q, err := query.ParseWhere(jq.rendered, lt)
		if err != nil {
			t.Fatalf("query %q: %v", jq.rendered, err)
		}
		want, err := oracle.Count(smp, q)
		if err != nil {
			t.Fatal(err)
		}
		if truths[i] != want {
			t.Fatalf("query %q: hash join counts %d, oracle %d", jq.rendered, truths[i], want)
		}
	}
}

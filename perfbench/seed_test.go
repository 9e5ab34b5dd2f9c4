package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro"
)

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Every input comes from the seed: the same seed rebuilds identical
// instances and job lists, another seed different ones.
func TestInputsComeFromTheSeedAlone(t *testing.T) {
	small := lassoModel
	small.instances = 3
	a, err := small.build(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := small.build(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := small.build(8)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, small.n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	for k := range a.insts {
		ia, ib, ic := a.insts[k], b.insts[k], c.insts[k]
		if ia.seed != ib.seed || !sameFloats(ia.ref, ib.ref) {
			t.Errorf("instance %d differs between two builds from seed 7", k)
		}
		fa, fb := make([]float64, small.n), make([]float64, small.n)
		repro.ApplyOperator(ia.spec.Op, nil, fa, x)
		repro.ApplyOperator(ib.spec.Op, nil, fb, x)
		if !sameFloats(fa, fb) {
			t.Errorf("instance %d: operators from seed 7 disagree", k)
		}
		if ia.seed == ic.seed || sameFloats(ia.ref, ic.ref) {
			t.Errorf("instance %d is the same for seeds 7 and 8", k)
		}
	}

	small2 := serveMix
	small2.distinct = 8
	ja, _, _, err := small2.jobList(7)
	if err != nil {
		t.Fatal(err)
	}
	jb, _, _, err := small2.jobList(7)
	if err != nil {
		t.Fatal(err)
	}
	jc, _, _, err := small2.jobList(8)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ja {
		if !bytes.Equal(ja[k].body, jb[k].body) || !sameFloats(ja[k].ref, jb[k].ref) {
			t.Errorf("job %d differs between two lists from seed 7", k)
		}
		if bytes.Equal(ja[k].body, jc[k].body) {
			t.Errorf("job %d is the same for seeds 7 and 8", k)
		}
	}
}

// BENCHMARK.json and the program agree on workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, " | "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, program %q", got, workloadNames())
	}
	for _, set := range []struct {
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.file) != len(set.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(set.file), len(set.prog))
			continue
		}
		for i, m := range set.file {
			if m.Name != set.prog[i].name || m.Unit != set.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, m.Name, m.Unit, set.prog[i].name, set.prog[i].unit)
			}
		}
	}
}

func TestParseTCPOpens(t *testing.T) {
	snmp := "Ip: Forwarding DefaultTTL\nIp: 1 64\n" +
		"Tcp: RtoAlgorithm RtoMin ActiveOpens PassiveOpens AttemptFails\n" +
		"Tcp: 1 200 41 40 3\n"
	got, err := parseTCPOpens(strings.NewReader(snmp))
	if err != nil || got != 81 {
		t.Errorf("parseTCPOpens = %d, %v; want 81", got, err)
	}
}

package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "table1",
		"exp1", "exp2", "exp3", "exp4", "exp5", "exp6a", "exp6b", "exp7", "exp8", "exp9", "exp10",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("want unknown-experiment error")
	}
}

// runExp generates and renders one experiment, returning the table.
func runExp(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table id %q, want %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("%s: render missing header", id)
	}
	return tab
}

// cell parses a numeric table cell, stripping %, x, +, - prefixes/suffixes.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig1Shapes(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1b"} {
		tab := runExp(t, id)
		// Row 0 is the no-DC baseline; slowdown must grow with frequency.
		base := cell(t, tab.Rows[0][1])
		prev := base
		for _, row := range tab.Rows[1:] {
			v := cell(t, row[1])
			if v <= prev {
				t.Fatalf("%s: training time not increasing with frequency: %v", id, tab.Rows)
			}
			prev = v
		}
		// Paper band: ~12-57% slowdown between every-8 and every-1.
		lo := cell(t, tab.Rows[1][1])/base - 1
		hi := cell(t, tab.Rows[len(tab.Rows)-1][1])/base - 1
		if lo < 0.05 || lo > 0.25 {
			t.Errorf("%s: low-frequency slowdown %.1f%%, paper ~12-13%%", id, lo*100)
		}
		if hi < 0.35 || hi > 0.8 {
			t.Errorf("%s: per-iteration slowdown %.1f%%, paper ~54-57%%", id, hi*100)
		}
	}
}

func TestTable1MinimumAtPaperCell(t *testing.T) {
	tab := runExp(t, "table1")
	// Find the minimum cell; the paper's Table I has it at FCF=20, BS=2.
	minV := 1e18
	minFCF, minBS := "", 0
	for _, row := range tab.Rows {
		for j := 1; j < len(row); j++ {
			v := cell(t, row[j])
			if v < minV {
				minV = v
				minFCF = row[0]
				minBS = j
			}
		}
	}
	if minV != 1.0 {
		t.Fatalf("normalized minimum = %v, want 1.0", minV)
	}
	if minFCF != "20" || minBS != 2 {
		t.Fatalf("minimum at (FCF=%s, BS=%d), paper has (20, 2)", minFCF, minBS)
	}
	// Row minima move to larger BS as FCF grows (paper: 2,2,3,3).
	prevArg := 0
	for _, row := range tab.Rows {
		arg, best := 0, 1e18
		for j := 1; j < len(row); j++ {
			if v := cell(t, row[j]); v < best {
				best, arg = v, j
			}
		}
		if arg < prevArg {
			t.Fatalf("row minima should not move left as FCF grows: %v", tab.Rows)
		}
		prevArg = arg
	}
}

func TestExp1Headlines(t *testing.T) {
	tab := runExp(t, "exp1")
	if len(tab.Rows) != 8 {
		t.Fatalf("exp1 has %d workloads, want 8 (7 DP + VGG16-PP)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		name := row[0]
		base := cell(t, row[1])
		cf := cell(t, row[2])
		gm := cell(t, row[3])
		nd := cell(t, row[4])
		ld := cell(t, row[5])
		if !(base < ld && ld < gm && ld < nd && ld < cf) {
			t.Errorf("%s: LowDiff not between baseline and others: %v", name, row)
		}
		ovh := ld/base - 1
		if ovh > 0.035 {
			t.Errorf("%s: LowDiff overhead %.1f%% exceeds the paper's 3.1%% headline", name, ovh*100)
		}
		if name == "GPT2-L" {
			if red := 1 - ld/cf; red < 0.8 {
				t.Errorf("GPT2-L reduction vs CheckFreq %.1f%%, paper 89.2%%", red*100)
			}
			if red := 1 - ld/gm; red < 0.5 {
				t.Errorf("GPT2-L reduction vs Gemini %.1f%%, paper 59.2%%", red*100)
			}
		}
	}
}

func TestExp2Headlines(t *testing.T) {
	tab := runExp(t, "exp2")
	for _, row := range tab.Rows {
		base := cell(t, row[1])
		cf := cell(t, row[2])
		gm := cell(t, row[3])
		plus := cell(t, row[4])
		if !(base < plus && plus < gm && plus < cf) {
			t.Errorf("%s: LowDiff+ ordering broken: %v", row[0], row)
		}
		if ovh := plus/base - 1; ovh < 0.04 || ovh > 0.14 {
			t.Errorf("%s: LowDiff+ overhead %.1f%%, paper 8.2-10.1%%", row[0], ovh*100)
		}
	}
}

func TestExp3Shape(t *testing.T) {
	tab := runExp(t, "exp3")
	// Columns: MTBF, NaiveDC, CheckFreq, Gemini, LowDiff, LowDiff+(S), LowDiff+(H).
	for _, row := range tab.Rows {
		ld := cell(t, row[4])
		for i, name := range []string{"NaiveDC", "CheckFreq", "Gemini"} {
			if v := cell(t, row[i+1]); v <= ld {
				t.Errorf("MTBF %s: %s wasted %.3f <= LowDiff %.3f", row[0], name, v, ld)
			}
		}
		plusH := cell(t, row[6])
		cf := cell(t, row[2])
		if plusH >= cf {
			t.Errorf("MTBF %s: LowDiff+(H) %.3f should stay below CheckFreq %.3f", row[0], plusH, cf)
		}
	}
	// LowDiff+(S) beats LowDiff at the most failure-heavy setting.
	first := tab.Rows[0]
	if cell(t, first[5]) >= cell(t, first[4]) {
		t.Errorf("MTBF %s: LowDiff+(S) %.3f should be below LowDiff %.3f (paper: 3.7-5.1%% lower)",
			first[0], cell(t, first[5]), cell(t, first[4]))
	}
	// Wasted time decreases as MTBF grows.
	for col := 1; col <= 6; col++ {
		prev := 1e18
		for _, row := range tab.Rows {
			v := cell(t, row[col])
			if v > prev*1.2 { // allow seed noise, forbid big inversions
				t.Errorf("column %d: wasted time grows with MTBF: %v", col, tab.Rows)
			}
			prev = v
		}
	}
}

func TestExp4MatchesPaper(t *testing.T) {
	tab := runExp(t, "exp4")
	// Header: model, NaiveDC, CheckFreq, Gemini, LowDiff, LowDiff+(S), LowDiff+(P).
	want := map[string][6]string{
		"ResNet-101": {"3", "10", "1", "1", "1", "1"},
		"BERT-L":     {"8", "10", "4", "1", "1", "3"},
		"GPT2-S":     {"5", "10", "3", "1", "1", "2"},
		"GPT2-L":     {"8", "10", "4", "1", "1", "3"},
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected model %q", row[0])
		}
		for i, expect := range w {
			if row[i+1] != expect {
				t.Errorf("%s %s: frequency %s, want %s", row[0], tab.Header[i+1], row[i+1], expect)
			}
		}
	}
}

func TestExp5Shape(t *testing.T) {
	tab := runExp(t, "exp5")
	for _, row := range tab.Rows {
		base := cell(t, row[1])
		naive := cell(t, row[2])
		serial := cell(t, row[3])
		par := cell(t, row[4])
		plus := cell(t, row[5])
		if !(plus < par && par < serial && serial < naive && naive < base) {
			t.Errorf("FCF %s: recovery ordering broken: %v", row[0], row)
		}
	}
	// Speedups grow with FCF (paper: 9.4x at 5 to 57.1x at 50).
	first := cell(t, tab.Rows[0][len(tab.Rows[0])-1])
	last := cell(t, tab.Rows[len(tab.Rows)-1][len(tab.Rows[0])-1])
	if last <= first {
		t.Errorf("LowDiff+(S) speedup should grow with FCF: %v -> %v", first, last)
	}
}

func TestExp6Shapes(t *testing.T) {
	tab := runExp(t, "exp6a")
	for _, row := range tab.Rows {
		prev := 1e18
		for j := 1; j <= 5; j++ {
			v := cell(t, row[j])
			if v > prev {
				t.Errorf("%s: write time not monotone in batch size", row[0])
			}
			prev = v
		}
		if row[0] == "GPT2-S" {
			if red := math.Abs(cell(t, row[6])); red < 25 || red > 35 {
				t.Errorf("GPT2-S reduction@20 = %v%%, paper 30.9%%", red)
			}
		}
	}
	tab = runExp(t, "exp6b")
	for _, row := range tab.Rows {
		without := cell(t, row[1])
		with := cell(t, row[2])
		if with != 0 {
			t.Errorf("%s: offloaded overhead %v, want 0", row[0], with)
		}
		if without < 3 || without > 15 {
			t.Errorf("%s: non-offloaded overhead %v%%, paper ~10-12%%", row[0], without)
		}
	}
}

func TestExp7MatchesPaperRatios(t *testing.T) {
	tab := runExp(t, "exp7")
	// Paper Table III reference values (bytes, decoded from G/M units).
	for _, row := range tab.Rows {
		ratio := cell(t, row[4])
		if ratio > 8.5 { // LowDiff/Full in percent
			t.Errorf("%s: LowDiff/Full = %v%%, paper ~6%%", row[0], ratio)
		}
	}
	// Spot-check GPT2-L row against the paper's 8.7G / 5.7G / 541M.
	var gpt2l []string
	for _, row := range tab.Rows {
		if row[0] == "GPT2-L" {
			gpt2l = row
		}
	}
	if gpt2l == nil {
		t.Fatal("GPT2-L missing from exp7")
	}
	if !strings.HasPrefix(gpt2l[1], "8.5") || !strings.HasSuffix(gpt2l[1], "GiB") {
		t.Errorf("GPT2-L full = %s, paper 8.7G", gpt2l[1])
	}
	if !strings.HasPrefix(gpt2l[2], "5.7") {
		t.Errorf("GPT2-L NaiveDC = %s, paper 5.7G", gpt2l[2])
	}
}

func TestExp8MatchesPaper(t *testing.T) {
	tab := runExp(t, "exp8")
	for _, row := range tab.Rows {
		rho := cell(t, row[0])
		if row[1] != "1" {
			t.Errorf("rho=%v: GPT2-S frequency %s, paper 1 everywhere", rho, row[1])
		}
		wantL := "1"
		if rho >= 0.1 {
			wantL = "2"
		}
		if row[2] != wantL {
			t.Errorf("rho=%v: GPT2-L frequency %s, want %s", rho, row[2], wantL)
		}
	}
}

func TestExp9Exp10Shapes(t *testing.T) {
	tab := runExp(t, "exp9")
	// LowDiff has the best ratio wherever failures are frequent (the
	// paper's focus); at very rare failures epoch-level checkpointing
	// approaches it. Ratios improve as MTBF grows.
	for _, row := range tab.Rows {
		mtbfH := cell(t, strings.TrimSuffix(row[0], "h"))
		if mtbfH > 2 {
			continue
		}
		ld := cell(t, row[4])
		for i := 1; i <= 5; i++ {
			if i == 4 {
				continue
			}
			if v := cell(t, row[i]); v > ld {
				t.Errorf("MTBF %s: %s ratio %v beats LowDiff %v", row[0], tab.Header[i], v, ld)
			}
		}
	}
	firstLD := cell(t, tab.Rows[0][4])
	lastLD := cell(t, tab.Rows[len(tab.Rows)-1][4])
	if lastLD < firstLD {
		t.Errorf("LowDiff ratio should improve with MTBF: %v -> %v", firstLD, lastLD)
	}

	tab = runExp(t, "exp10")
	prev := 101.0
	for _, row := range tab.Rows {
		ld := cell(t, row[4])
		ts := cell(t, row[1])
		if ld <= ts {
			t.Errorf("GPUs %s: LowDiff %v should beat TorchSave %v", row[0], ld, ts)
		}
		if ld > prev+1 {
			t.Errorf("LowDiff ratio should not improve with more GPUs: %v", tab.Rows)
		}
		prev = ld
	}
}

func TestRunAll(t *testing.T) {
	tabs, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(IDs()) {
		t.Fatalf("RunAll returned %d tables, want %d", len(tabs), len(IDs()))
	}
}

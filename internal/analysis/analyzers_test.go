package analysis_test

import (
	"path/filepath"
	"testing"

	"bayou/internal/analysis"
	"bayou/internal/analysis/analysistest"
)

// Each analyzer has positive golden files (the listed want comments fail
// the test if the analyzer stops reporting them) and negative cases in
// the same packages (any new diagnostic without a want fails the test) —
// so every check is pinned in both directions.

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "determinism"), analysis.Determinism,
		"bayou/internal/core", "bayou/internal/livenet")
}

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "lockcheck"), analysis.Lockcheck, "lock")
}

func TestLayering(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "layering"), analysis.Layering,
		"bayou", "bayou/internal/core", "bayou/internal/check", "bayou/internal/livenet")
}

func TestEffectsHygiene(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "effectshygiene"), analysis.EffectsHygiene, "effuser", "txnuser")
}

func TestSeedplumb(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "seedplumb"), analysis.Seedplumb, "seed")
}

func TestShadow(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "shadow"), analysis.Shadow, "shadow")
}

// TestSuppression pins the //bayouvet:ignore convention end to end:
// documented suppressions silence a finding, undocumented or unknown ones
// are findings themselves, and stale ones are reported so they cannot
// linger and mask future regressions.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "suppress"), analysis.Determinism,
		"bayou/internal/core")
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6, nil", len(all), err)
	}
	two, err := analysis.ByName("determinism,layering")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName(determinism,layering) = %v, %v", two, err)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded; want error")
	}
}

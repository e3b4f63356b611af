package lint

import "testing"

// The golden corpora under testdata/src mirror the analysistest
// convention: fixture packages carry `// want "regex"` comments, and
// runGolden checks the diagnostics against them in both directions.
// A scoped analyzer (errwrap) gets fixture packages
// whose import paths replicate the in-scope suffixes
// (.../testdata/src/errwrap/internal/storage matches internal/storage).

func TestLockCheckGolden(t *testing.T) {
	runGolden(t, "internal/lint/testdata/src/lockcheck", LockCheck)
}

func TestErrWrapGolden(t *testing.T) {
	runGolden(t, "internal/lint/testdata/src/errwrap/internal/storage", ErrWrap)
}

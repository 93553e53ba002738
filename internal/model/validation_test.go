package model_test

import (
	"strings"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/serve"
)

// TestMapOpWriteSetValidatedThroughReplay: a map ApplyFunc that omits a
// write-set variable, or writes one outside the write set, is caught on
// every call by NewOp's wrapper — also when the call comes from a dense
// replay engine, which never sees a map. The error text is the one
// Compute has always reported.
func TestMapOpWriteSetValidatedThroughReplay(t *testing.T) {
	cases := []struct {
		name string
		bad  *model.Op
		want string
	}{
		{"omits a write", model.NewOp(2, "few", []model.Var{"x"}, []model.Var{"x", "y"},
			func(r model.ReadSet) model.WriteSet { return model.WriteSet{"x": "1"} }),
			"model: operation few#2 wrote 1 variables, want write set of 2"},
		{"writes an extra variable", model.NewOp(2, "wrong", []model.Var{"x"}, []model.Var{"x"},
			func(r model.ReadSet) model.WriteSet { return model.WriteSet{"z": "1"} }),
			`model: operation wrong#2 did not write "x", which is in its write set`},
	}
	for _, tc := range cases {
		// The forward path would refuse the operation, so the record is
		// put on the log directly, behind one well-formed record.
		crashed := func() method.DB {
			db := method.NewLogical(model.NewState())
			if err := db.Exec(model.Incr(1, "x", 1)); err != nil {
				t.Fatal(err)
			}
			db.WAL().Append(tc.bad, 16)
			db.FlushLog()
			db.Crash()
			return db
		}
		check := func(engine string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s, %s: error %v, want it to contain %q", tc.name, engine, err, tc.want)
			}
		}

		if _, err := tc.bad.Compute(nil); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Compute error %v, want %q", tc.name, err, tc.want)
		}

		db := crashed()
		_, err := core.RecoverDense(nil, method.Survivors(db))
		check("core.RecoverDense", err)

		_, err = method.RecoverParallel(crashed(), method.ParallelOptions{Workers: 2})
		check("method.RecoverParallel", err)

		e, err := serve.New(crashed(), serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check("serve Drain", e.Drain())
		e.Close()
	}
}

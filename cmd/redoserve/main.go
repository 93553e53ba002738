// Command redoserve is the instant-restart server: it crashes a
// write-heavy fixture, then serves reads and writes immediately while
// redo recovery proceeds lazily, per page, underneath (internal/serve).
//
// Two modes:
//
//	redoserve -bench -out BENCH_serve.json [-baseline BENCH_serve.json]
//
// runs the availability benchmark (bench.go; the harness lives in this
// command so that internal/serve links nothing of the simulator): per
// trial it times sequential offline recovery over the crashed fixture,
// then restarts the same crash behind the serving engine under
// concurrent Zipfian client load and records each client's time to
// first successfully served read. The availability gate — the
// instant-restart claim — is that p99 time-to-first-read stays under
// -tolerance (default 10%) of the offline full-recovery wall-clock, and
// the command exits non-zero when it does not hold. With -baseline
// pointing at a checked-in report, the trend history (num_cpu,
// gomaxprocs, ratio per run) is carried forward like
// BENCH_parallel.json's. Every fixture count (-ops, -pages, -clients,
// -requests, -trials) must be at least 1.
//
//	redoserve -addr localhost:8080
//
// serves the engine over HTTP for interactive poking: GET
// /read?page=pg03 and /write?page=pg03 go through the admission gate
// (a touch of a cold page recovers it on the spot), /stats reports
// recovery progress, /drain forces full recovery inline. Post-crash
// writes append to the crashed store's own WAL, so killing the server
// and recovering again replays them like any other history.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/obs"
	"redotheory/internal/serve"
	"redotheory/internal/sim"
	"redotheory/internal/workload"
)

func main() {
	bench := flag.Bool("bench", false, "run the availability benchmark and write the JSON report")
	out := flag.String("out", "BENCH_serve.json", "output path for the benchmark report")
	baseline := flag.String("baseline", "", "checked-in report to inherit trend history from")
	tolerance := flag.Float64("tolerance", 0.10, "availability gate: max allowed p99 TTFR / offline full-recovery ratio")
	var fx fixture
	flag.IntVar(&fx.Ops, "ops", 3000, "operations in the crashed fixture")
	flag.IntVar(&fx.Pages, "pages", 512, "pages in the fixture")
	flag.IntVar(&fx.Rounds, "rounds", 2000, "recomputation rounds per replayed operation")
	flag.IntVar(&fx.Clients, "clients", 4, "concurrent bench clients")
	flag.IntVar(&fx.Requests, "requests", 200, "requests per bench client")
	flag.IntVar(&fx.Trials, "trials", 5, "crash/restart cycles in the benchmark")
	seed := flag.Int64("seed", 1, "fixture and client seed")
	addr := flag.String("addr", "", "serve the engine over HTTP on this address (server mode)")
	flag.Parse()

	for _, name := range []string{"ops", "pages", "clients", "requests", "trials"} {
		if n := flag.Lookup(name).Value.(flag.Getter).Get().(int); n < 1 {
			fatal(fmt.Errorf("-%s %d: must be at least 1", name, n))
		}
	}
	if *bench {
		runBench(*out, *baseline, *tolerance, fx, *seed)
		return
	}
	if *addr == "" {
		fatal(fmt.Errorf("nothing to do: pass -bench or -addr (see -h)"))
	}
	runServer(*addr, fx.Ops, fx.Pages, fx.Rounds, *seed)
}

// runServer crashes the fixture and serves it over HTTP while the
// sweeper drains recovery in the background.
func runServer(addr string, nOps, nPages, rounds int, seed int64) {
	pages := workload.Pages(nPages)
	ops := workload.HeavyHotPage(nOps, pages, rounds, seed)
	mk := func(s *model.State) method.DB { return method.NewPhysiological(s) }
	db, err := sim.BuildCrashed(mk, workload.InitialState(pages), ops, len(ops), sim.Sched{Seed: seed, ForceOnCrash: true}, nil)
	if err != nil {
		fatal(err)
	}
	rec := obs.New()
	// The engine continues the store's own WAL: post-crash writes are
	// ordinary log records and survive the next crash.
	eng, err := serve.New(db, serve.Options{Recorder: rec, WAL: db.WAL(), Sweeper: true, SweepDelay: time.Second})
	if err != nil {
		fatal(err)
	}
	var nextID atomic.Int64
	nextID.Store(int64(nOps))

	pageParam := func(w http.ResponseWriter, r *http.Request) (model.Var, bool) {
		p := model.Var(r.URL.Query().Get("page"))
		if p == "" {
			http.Error(w, "missing ?page=pgNN", http.StatusBadRequest)
			return "", false
		}
		return p, true
	}
	http.HandleFunc("/read", func(w http.ResponseWriter, r *http.Request) {
		p, ok := pageParam(w, r)
		if !ok {
			return
		}
		v, err := eng.Read(p)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "%s = %s\n", p, v)
	})
	http.HandleFunc("/write", func(w http.ResponseWriter, r *http.Request) {
		p, ok := pageParam(w, r)
		if !ok {
			return
		}
		op := model.ReadWrite(model.OpID(nextID.Add(1)), "client", []model.Var{p}, []model.Var{p})
		if err := eng.Exec(op); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		v, err := eng.Read(p)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "committed %s; %s = %s\n", op, p, v)
	})
	http.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(eng.Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	http.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if err := eng.Drain(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		st := eng.Stats()
		fmt.Fprintf(w, "fully recovered: %d components (%d pages) in %s\n",
			st.Recovered, st.PagesRecovered, st.FullRecovery)
	})

	fmt.Printf("redoserve: crashed %d ops over %d pages; serving on http://%s\n", nOps, nPages, addr)
	fmt.Printf("  GET /read?page=%s   /write?page=%s   /stats   /drain\n", pages[7], pages[7])
	fatal(http.ListenAndServe(addr, nil))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "redoserve: %v\n", err)
	os.Exit(1)
}

package main

import (
	"fmt"
	"sort"
	"strings"
	"syscall"
	"time"

	"speccat/internal/core/prover"
	"speccat/internal/core/provesched"
	"speccat/internal/core/speclang"
	"speccat/internal/thesis"
)

// verify_corpus: no cluster. The paper's own deliverable is the proof
// pipeline, and this workload is three kinds of verification request made
// one after the other by a single client: the thesis corpus elaborated and
// every obligation discharged by one worker; the same on nproc workers;
// and the monolithic (E9) proofs of Serialize, CSM and RBR. core/speclang,
// core/prover and core/provesched do all the work and the serving layers
// none.

var monolithicTheorems = []string{"Serialize", "CSM", "RBR"}

// requestKinds are the three verification requests, in their base order.
var requestKinds = []string{"corpus_verify", "corpus_verify_par", "monolithic_prove"}

// proofText renders a refutation, so that two proofs can be compared byte
// for byte.
func proofText(p *prover.Result) string {
	var b strings.Builder
	for _, step := range p.Proof {
		b.WriteString(step.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// corpusProofs reads the proofs a proofs-included elaboration bound to the
// obligations' names.
func corpusProofs(env *speclang.Env, obs []provesched.Obligation) (map[string]string, error) {
	out := map[string]string{}
	for _, ob := range obs {
		v, ok := env.Lookup(ob.Name)
		if !ok || v.Kind != speclang.KindProof || v.Proof == nil {
			return nil, fmt.Errorf("obligation %s (%s in %s) is unproved", ob.Name, ob.Theorem, ob.In)
		}
		out[ob.Name] = proofText(v.Proof)
	}
	return out, nil
}

// proofLedger holds the first text seen of every proof and counts the
// proofs that later differ from it or are missing.
type proofLedger struct {
	first     map[string]string
	attempted int
	failed    int
	problems  []string
}

func (l *proofLedger) check(name, text string) {
	l.attempted++
	switch prev, ok := l.first[name]; {
	case !ok:
		l.first[name] = text
	case prev != text:
		l.fail(fmt.Sprintf("proof %s is not byte-identical across iterations and worker counts", name))
	}
}

func (l *proofLedger) fail(msg string) {
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, msg)
	}
}

// verifier makes the three kinds of request and checks what they return.
type verifier struct {
	obs    []provesched.Obligation
	env    *speclang.Env // the last sequential elaboration, for the monolithic proofs
	ledger proofLedger
	// stats of the last monolithic proofs, by theorem.
	mono map[string]prover.Stats
}

func newVerifier() (*verifier, error) {
	obs, err := thesis.Obligations()
	if err != nil {
		return nil, err
	}
	return &verifier{obs: obs, ledger: proofLedger{first: map[string]string{}}, mono: map[string]prover.Stats{}}, nil
}

// request serves one verification request and returns its duration.
func (v *verifier) request(kind string) (time.Duration, error) {
	t0 := time.Now()
	switch kind {
	case "corpus_verify":
		env, err := thesis.Corpus()
		d := time.Since(t0)
		if err != nil {
			v.ledger.attempted += len(v.obs)
			v.ledger.fail(err.Error())
			return d, nil
		}
		proofs, err := corpusProofs(env, v.obs)
		if err != nil {
			v.ledger.attempted += len(v.obs)
			v.ledger.fail(err.Error())
			return d, nil
		}
		v.env = env
		for name, text := range proofs {
			v.ledger.check(name, text)
		}
		return d, nil
	case "corpus_verify_par":
		_, results, err := thesis.CorpusParallel(nproc())
		d := time.Since(t0)
		if err != nil {
			v.ledger.attempted += len(v.obs)
			v.ledger.fail(err.Error())
			return d, nil
		}
		v.checkResults(results)
		return d, nil
	case "monolithic_prove":
		if v.env == nil {
			return 0, fmt.Errorf("monolithic_prove before any corpus elaboration")
		}
		for _, th := range monolithicTheorems {
			v.proveMonolithic(v.env, th)
		}
		return time.Since(t0), nil
	}
	return 0, fmt.Errorf("unknown request kind %q", kind)
}

// checkResults enters a scheduler run's proofs in the ledger.
func (v *verifier) checkResults(results []provesched.Result) {
	for _, r := range results {
		if r.Err != nil {
			v.ledger.attempted++
			v.ledger.fail(r.Err.Error())
			continue
		}
		v.ledger.check(r.Obligation.Name, proofText(r.Proof))
	}
}

// proveMonolithic proves one theorem from its composite's full axiom set
// and enters the proof in the ledger.
func (v *verifier) proveMonolithic(env *speclang.Env, theorem string) {
	r, err := thesis.ProveMonolithic(env, theorem)
	if err != nil {
		v.ledger.attempted++
		v.ledger.fail(err.Error())
		return
	}
	v.mono[theorem] = r.Proof.Stats
	v.ledger.check("monolithic/"+theorem, proofText(r.Proof))
}

// selfCPUSeconds is the user+system CPU time of this process.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// elaborate is the set-up of verify_corpus: what has to happen before any
// request can be served — parsing and elaborating the corpus and extracting
// its obligations. It returns how long that took.
func elaborate() (float64, error) {
	t0 := time.Now()
	if _, err := thesis.CorpusWithoutProofs(); err != nil {
		return 0, err
	}
	if _, err := thesis.Obligations(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// setupsPerRequest is how many times the corpus is set up before each
// request; a set-up takes a few milliseconds.
const setupsPerRequest = 3

// runVerify is the end-to-end run of verify_corpus: whole iterations of
// the three requests, in an order the seed picks, until the window is
// over. The corpus is set up anew before every request, so that the set-up
// samples are spread over the window like the requests are.
//
// Every figure is a lower quartile over the iterations, per kind of
// request, for the reason window.go gives: the machine's speed flips
// between two states every few seconds, and the lower quartile is what the
// pipeline does when nothing outside it interferes.
func runVerify(cfg runConfig) (*result, error) {
	res := newResult("verify_corpus", cfg)
	res.Conns = 1
	v, err := newVerifier()
	if err != nil {
		return nil, err
	}
	// Untimed warm-up: one sequential pass, which also gives the monolithic
	// proofs an environment whatever the order.
	if _, err := v.request("corpus_verify"); err != nil {
		return nil, err
	}

	rnd := rng{s: streamSeed(cfg.seed, 0)}
	wall := map[string][]float64{} // ms per request, by kind
	cpu := map[string][]float64{}  // CPU ms per request, by kind
	var setups []float64
	start := time.Now()
	end := start.Add(cfg.window())
	iterations := 0
	for now := start; now.Before(end) || iterations == 0; now = time.Now() {
		order := append([]string(nil), requestKinds...)
		for i := len(order) - 1; i > 0; i-- {
			j := rnd.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, kind := range order {
			for i := 0; i < setupsPerRequest; i++ {
				s, err := elaborate()
				if err != nil {
					return nil, err
				}
				setups = append(setups, s)
			}
			c0, err := selfCPUSeconds()
			if err != nil {
				return nil, err
			}
			d, err := v.request(kind)
			if err != nil {
				return nil, err
			}
			c1, err := selfCPUSeconds()
			if err != nil {
				return nil, err
			}
			wall[kind] = append(wall[kind], float64(d)/float64(time.Millisecond))
			cpu[kind] = append(cpu[kind], (c1-c0)*1000)
		}
		iterations++
		if cfg.tiny {
			break
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = v.ledger.attempted, v.ledger.failed
	res.Problems = append(res.Problems, v.ledger.problems...)
	res.Counts["iterations"] = iterations
	res.Counts["requests"] = iterations * len(requestKinds)
	res.Counts["obligations"] = len(v.obs)
	res.Segments["setup_s"] = setups
	var quiet []float64 // the quiet time of each kind, ms
	var quietTotal, quietCPU float64
	for _, kind := range requestKinds {
		res.Segments[kind+"_ms"] = wall[kind]
		q := quantile(wall[kind], 0.25)
		quiet = append(quiet, q)
		quietTotal += q
		quietCPU += quantile(cpu[kind], 0.25)
		res.extra(kind+"_s", q/1000, "s")
	}
	sort.Float64s(quiet)
	res.set("setup_s", quantile(setups, 0.25))
	res.set("ops_per_s", float64(len(requestKinds))*1000/quietTotal)
	res.set("op_p50_ms", quantileSorted(quiet, 0.5))
	res.set("op_p90_ms", quantileSorted(quiet, 0.9))
	res.set("cpu_ms_per_op", quietCPU/float64(len(requestKinds)))
	res.set("rss_mb", peak)
	return res, nil
}

// peakRSSMB is this process's peak resident set size (VmHWM): what a user
// of the proof pipeline has to provision. The resident set at one instant
// depends on where the garbage collector happens to be.
func peakRSSMB() (float64, error) {
	return procStatusMB(syscall.Getpid(), "VmHWM:")
}

// traceVerify is the per-layer run of verify_corpus: each layer of the
// proof pipeline is called directly and timed from here.
func traceVerify(cfg runConfig) (*result, error) {
	res := newResult("verify_corpus", cfg)
	res.Conns = 1
	tr := newTracer()
	iters := 3
	if cfg.tiny {
		iters = 1
	}
	v, err := newVerifier()
	if err != nil {
		return nil, err
	}
	series := map[string][]float64{}
	record := func(parent int64, name string, fn func()) {
		o := tr.begin(name, 0, "", parent)
		t0 := time.Now()
		fn()
		series[name] = append(series[name], float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(o)
	}
	var allocs []float64
	for i := 0; i < iters; i++ {
		iter := tr.begin("verify.iteration", 0, "", 0)
		var env *speclang.Env
		var err error
		record(iter.id, "speclang.elaborate", func() { env, err = thesis.CorpusWithoutProofs() })
		if err != nil {
			return nil, err
		}
		for _, run := range []struct {
			name    string
			workers int
		}{{"provesched.run_1", 1}, {"provesched.run_n", nproc()}} {
			var results []provesched.Result
			record(iter.id, run.name, func() {
				results = (&provesched.Scheduler{Workers: run.workers}).Run(env, v.obs)
			})
			v.checkResults(results)
		}
		m0 := mallocs()
		record(iter.id, "prover.corpus_verify", func() { _, err = v.request("corpus_verify") })
		allocs = append(allocs, float64(mallocs()-m0))
		if err != nil {
			return nil, err
		}
		record(iter.id, "provesched.corpus_verify_par", func() { _, err = v.request("corpus_verify_par") })
		if err != nil {
			return nil, err
		}
		for _, th := range monolithicTheorems {
			record(iter.id, "prover."+strings.ToLower(th), func() { v.proveMonolithic(env, th) })
		}
		tr.end(iter)
	}

	res.Attempted, res.Failed = v.ledger.attempted, v.ledger.failed
	res.Problems = append(res.Problems, v.ledger.problems...)
	res.Counts["iterations"] = iters
	res.Segments = series
	med := func(name string) float64 { return median(series[name]) }
	res.set("speclang.elaborate_ms", med("speclang.elaborate"))
	res.set("prover.corpus_verify_ms", med("prover.corpus_verify"))
	res.set("provesched.corpus_verify_par_ms", med("provesched.corpus_verify_par"))
	if n := med("provesched.run_n"); n > 0 {
		res.set("provesched.speedup", med("provesched.run_1")/n)
	}
	res.set("prover.serialize_ms", med("prover.serialize"))
	res.set("prover.csm_ms", med("prover.csm"))
	res.set("prover.rbr_ms", med("prover.rbr"))
	res.set("prover.monolithic_ms", med("prover.serialize")+med("prover.csm")+med("prover.rbr"))
	var gen, ret, its float64
	for _, th := range monolithicTheorems {
		st := v.mono[th]
		gen += float64(st.Generated)
		ret += float64(st.Retained)
		its += float64(st.Iterations)
	}
	res.set("prover.generated", gen)
	res.set("prover.retained", ret)
	res.set("prover.iterations", its)
	res.set("prover.allocs_per_corpus", median(allocs))
	res.Spans = tr.spans()
	return res, nil
}

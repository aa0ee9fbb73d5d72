package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"

	"bfpp/internal/cli"
	"bfpp/internal/core"
	"bfpp/internal/engine"
	"bfpp/internal/search"
	"bfpp/internal/service"
)

// Workload names, as BENCHMARK.json and the README list them.
const (
	planSweep     = "plan-sweep"
	whatIfSim     = "what-if-sim"
	durableRepeat = "durable-repeat"
)

var workloadNames = []string{planSweep, whatIfSim, durableRepeat}

// Request classes: every timed request falls in exactly one.
const (
	classMiss = "search_miss" // /v1/search computed by a sweep
	classHit  = "search_hit"  // /v1/search served from the result cache or the store
	classSim  = "simulate"    // /v1/simulate
)

// request is one generated HTTP request with the class it must fall in.
type request struct {
	Class  string                   `json:"class"`
	Search *service.SearchRequest   `json:"search,omitempty"`
	Sim    *service.SimulateRequest `json:"simulate,omitempty"`
}

// path is the endpoint the request is POSTed to.
func (r request) path() string {
	if r.Sim != nil {
		return "/v1/simulate"
	}
	return "/v1/search"
}

// body is the request's JSON body.
func (r request) body() []byte {
	var v any = r.Search
	if r.Sim != nil {
		v = r.Sim
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always encode
	}
	return b
}

// key identifies the request's result: two requests with equal keys must
// get identical answers.
func (r request) key() string { return string(r.body()) }

// simCase is one what-if-sim plan: the request, the single-group search
// scenario its plan was enumerated from, and the in-process result the
// server must reproduce.
type simCase struct {
	Req    service.SimulateRequest `json:"request"`
	Origin service.SearchRequest   `json:"origin"`
	Want   engine.Result           `json:"want"`
}

// workload is everything a run sends, generated from the seed alone.
type workload struct {
	Name    string `json:"name"`
	Seed    uint64 `json:"seed"`
	Clients int    `json:"clients"`
	// Store runs the server with -store (fsync on).
	Store bool `json:"store"`
	// Warmup is the fixed, seed-independent list answered during set-up.
	Warmup []request `json:"warmup"`
	// Populate is written to the store, untimed, before the server starts.
	Populate []service.SearchRequest `json:"populate,omitempty"`
	// Streams holds one closed-loop request sequence per client, longer
	// than any run consumes.
	Streams [][]request `json:"streams"`
	// Sims is the what-if-sim plan pool the streams draw from.
	Sims []simCase `json:"sims,omitempty"`
}

// template is one scenario shape of the search space: a model on a
// cluster with a family scope, and the batch grid whose subsets of the
// listed sizes its requests take. The sizes stay below the grid's length:
// the whole grid is the warm-up request.
type template struct {
	model, cluster, families string
	grid                     []int
	sizes                    []int
}

// figure7Grid is the global batch-size grid of Figure 7.
var figure7Grid = []int{8, 16, 32, 64, 128, 256, 512}

// smallGrid bounds "every" requests: the V-schedule family prices every
// candidate with the simulator, so a 512 batch costs ~0.7 s warm and would
// swamp the mix.
var smallGrid = []int{8, 16, 32, 64}

// sweepTemplates is the plan-sweep scenario space: the three paper models
// on the paper testbed, its Ethernet variant and GPU-count clusters, under
// the paper's four families ("all") and every registered family.
var sweepTemplates = []template{
	{"52B", "paper", "all", figure7Grid, []int{3, 4}},
	{"52B", "ethernet", "all", figure7Grid, []int{3, 4}},
	{"52B", "128", "all", figure7Grid, []int{3, 4}},
	{"6.6B", "paper", "all", figure7Grid, []int{3, 4}},
	{"6.6B", "32", "all", figure7Grid, []int{3, 4}},
	{"GPT-3", "256", "all", figure7Grid, []int{3, 4}},
	{"52B", "paper", "every", smallGrid, []int{1, 2, 3}},
	{"52B", "ethernet", "every", smallGrid, []int{1, 2, 3}},
	{"52B", "64", "every", smallGrid, []int{1, 2, 3}},
	{"6.6B", "paper", "every", smallGrid, []int{1, 2, 3}},
	{"6.6B", "ethernet", "every", smallGrid, []int{1, 2, 3}},
	{"6.6B", "32", "every", smallGrid, []int{1, 2, 3}},
}

// durableTemplates is durable-repeat's cheaper space: 6.6B and small 52B
// grids under the paper families.
var durableTemplates = []template{
	{"6.6B", "paper", "all", figure7Grid, []int{3, 4}},
	{"6.6B", "ethernet", "all", figure7Grid, []int{3, 4}},
	{"6.6B", "32", "all", figure7Grid, []int{3, 4}},
	{"6.6B", "64", "all", figure7Grid, []int{3, 4}},
	{"6.6B", "128", "all", figure7Grid, []int{3, 4}},
	{"52B", "paper", "all", figure7Grid, []int{1, 2, 3}},
	{"52B", "ethernet", "all", figure7Grid, []int{1, 2, 3}},
	{"52B", "32", "all", figure7Grid, []int{1, 2, 3}},
	{"52B", "64", "all", figure7Grid, []int{1, 2, 3}},
}

// The (micro-batch cap, cost model) options each batch subset is sent
// with. Each cap admits a different set of micro-batch sizes, because S_mb
// runs over the powers of two up to it.
var (
	costModels     = []string{"paper", "contended"}
	maxMicroBatchs = []int{1, 2, 4, 8, 16, 32}
)

// Stream sizes. Search streams hold every distinct request of their
// templates, and every stream is several times what a run consumes; a run
// that exhausts its stream fails rather than change its mix.
const (
	durablePopular = 16 // requests pre-populated into the store
	simsPerCell    = 4
	simLength      = 400000 // simulations, shared out over the clients
	repeatShare    = 2      // repeats per block of repeatBlock durable requests
	repeatBlock    = 4
)

// rng is splitmix64: tiny, and its sequence is fixed by this file rather
// than by a standard-library version, so a seed names the same inputs on
// every toolchain.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes n elements with swap, Fisher-Yates.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// full is the template's fixed warm-up request: the whole grid at the
// default micro-batch cap and cost model, which fills the schedule and
// memory memo caches for every subset the template draws.
func (t template) full() service.SearchRequest {
	return service.SearchRequest{
		Model:         t.model,
		Cluster:       t.cluster,
		Families:      []string{t.families},
		Batches:       append([]int(nil), t.grid...),
		MaxMicroBatch: 16,
		CostModel:     "paper",
	}
}

func searchReq(class string, s service.SearchRequest) request {
	return request{Class: class, Search: &s}
}

// drawer hands out each distinct request of a template exactly once, in
// an order that covers the template evenly. The template's batch subsets
// form groups: a subset together with its complement when both sizes are
// allowed (the two cover the grid once), otherwise the subset alone. A
// request is a group with one (micro-batch cap, cost model) option. The
// n-th draw takes group n mod G and option (n + n/L) mod O, for G groups,
// O options and L their least common multiple: this visits every (group,
// option) pair once, and any stretch of draws holds every group, and
// every option, equally often to within one. Groups and options are in
// seeded order.
type drawer struct {
	t      template
	r      *rng
	groups [][][]int
	opts   []int // seeded permutation of the option indices
	n      int   // groups drawn so far
	queue  []service.SearchRequest
}

func newDrawer(t template, r *rng) *drawer {
	d := &drawer{t: t, r: r}
	allowed := map[int]bool{}
	for _, n := range t.sizes {
		allowed[n] = true
	}
	full := 1<<len(t.grid) - 1
	grouped := map[int]bool{}
	for mask := 1; mask < full; mask++ {
		if !allowed[bits.OnesCount(uint(mask))] || grouped[mask] {
			continue
		}
		g := [][]int{t.subset(mask)}
		if c := full ^ mask; allowed[bits.OnesCount(uint(c))] {
			g = append(g, t.subset(c))
			grouped[c] = true
		}
		d.groups = append(d.groups, g)
	}
	r.shuffle(len(d.groups), func(i, j int) { d.groups[i], d.groups[j] = d.groups[j], d.groups[i] })
	d.opts = make([]int, len(maxMicroBatchs)*len(costModels))
	for i := range d.opts {
		d.opts[i] = i
	}
	r.shuffle(len(d.opts), func(i, j int) { d.opts[i], d.opts[j] = d.opts[j], d.opts[i] })
	return d
}

// subset is the grid's batches selected by mask, ascending.
func (t template) subset(mask int) []int {
	var out []int
	for i, b := range t.grid {
		if mask&(1<<i) != 0 {
			out = append(out, b)
		}
	}
	return out
}

// next returns the template's next request, or false once every one has
// been handed out.
func (d *drawer) next() (service.SearchRequest, bool) {
	if len(d.queue) == 0 {
		g, o := len(d.groups), len(d.opts)
		if d.n == g*o {
			return service.SearchRequest{}, false
		}
		l := g / gcd(g, o) * o
		opt := d.opts[(d.n+d.n/l)%o]
		subsets := d.groups[d.n%g]
		d.n++
		if len(subsets) == 2 && d.r.intn(2) == 0 {
			subsets = [][]int{subsets[1], subsets[0]}
		}
		for _, batches := range subsets {
			d.queue = append(d.queue, service.SearchRequest{
				Model:         d.t.model,
				Cluster:       d.t.cluster,
				Families:      []string{d.t.families},
				Batches:       batches,
				MaxMicroBatch: maxMicroBatchs[opt%len(maxMicroBatchs)],
				CostModel:     costModels[opt/len(maxMicroBatchs)],
			})
		}
	}
	q := d.queue[0]
	d.queue = d.queue[1:]
	return q, true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rounds returns the templates' requests, one per template per round in
// seeded order. It stops before the first round a template cannot fill,
// so the mix of templates stays the same to the stream's end.
func rounds(ts []template, r *rng) []service.SearchRequest {
	var ds []*drawer
	for _, t := range ts {
		ds = append(ds, newDrawer(t, r))
	}
	var out []service.SearchRequest
	for {
		r.shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		var round []service.SearchRequest
		for _, d := range ds {
			q, ok := d.next()
			if !ok {
				return out
			}
			round = append(round, q)
		}
		out = append(out, round...)
	}
}

// warmup returns the fixed warm-up list of a template set. No timed
// request repeats one, because timed requests never take the whole grid.
func warmup(ts []template) []request {
	var out []request
	for _, t := range ts {
		out = append(out, searchReq(classMiss, t.full()))
	}
	return out
}

// generate builds a workload from its name and seed. It is a pure
// function of the two: the same arguments give byte-identical requests.
func generate(name string, seed uint64, clients int) (*workload, error) {
	w := &workload{Name: name, Seed: seed, Clients: clients}
	switch name {
	case planSweep:
		w.Clients = 1
		genPlanSweep(w)
	case whatIfSim:
		if err := genWhatIfSim(w); err != nil {
			return nil, err
		}
	case durableRepeat:
		w.Store = true
		genDurableRepeat(w)
	default:
		return nil, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// genPlanSweep: one client, every request a distinct cache-missing search.
// Requests come in rounds holding one draw per template in seeded order,
// so every run sees the same scenario mix whatever its seed.
func genPlanSweep(w *workload) {
	w.Warmup = warmup(sweepTemplates)
	var s []request
	for _, q := range rounds(sweepTemplates, newRNG(w.Seed, 1)) {
		s = append(s, searchReq(classMiss, q))
	}
	w.Streams = [][]request{s}
}

// genDurableRepeat: each client alternates new cheap searches (misses that
// write a result record and journal appends) with repeats of its own
// earlier requests or of pre-populated ones (hits). New requests are
// distinct across clients, so hit and miss counts are fixed by the seed;
// they come from the templates in seeded rounds, like plan-sweep's.
func genDurableRepeat(w *workload) {
	w.Warmup = warmup(durableTemplates)
	r := newRNG(w.Seed, 2)
	fresh := rounds(durableTemplates, r)
	w.Populate, fresh = fresh[:durablePopular], fresh[durablePopular:]
	w.Streams = make([][]request, w.Clients)
	own := make([][]service.SearchRequest, w.Clients)
	for i := 0; len(fresh) > 0; i++ {
		c := i % w.Clients
		var q request
		switch repeat := repeatSlot(w.Seed, c, len(w.Streams[c])); {
		case repeat && len(own[c]) > 0 && r.intn(2) == 0:
			q = searchReq(classHit, own[c][r.intn(len(own[c]))])
		case repeat:
			q = searchReq(classHit, w.Populate[r.intn(len(w.Populate))])
		default:
			own[c] = append(own[c], fresh[0])
			q = searchReq(classMiss, fresh[0])
			fresh = fresh[1:]
		}
		w.Streams[c] = append(w.Streams[c], q)
	}
}

// repeatSlot reports whether a client's stream position is a repeat:
// exactly repeatShare of every repeatBlock consecutive positions are,
// at seeded places.
func repeatSlot(seed uint64, client, pos int) bool {
	r := newRNG(seed, uint64(1000+client)<<32|uint64(pos/repeatBlock))
	slots := make([]int, repeatBlock)
	for i := range slots {
		slots[i] = i
	}
	r.shuffle(repeatBlock, func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	for _, s := range slots[:repeatShare] {
		if s == pos%repeatBlock {
			return true
		}
	}
	return false
}

// genWhatIfSim: a pool of valid plans and the closed-loop streams that
// draw from it. The plans come from search.Enumerate over the plan-sweep
// scenario space, one cell (template, family, batch) at a time:
// simsPerCell plans per cell at evenly spaced positions of the
// enumeration, each with a seeded cost model and simulated in process for
// the expected result. The plans are the same for every seed, so the
// pool's cost mix and memory peak are too (one outsized plan more or less
// moves peak RSS by a third); the seed sets the cost models and the order.
// The warm-up list, fixed for all seeds, is the first and last plan of
// every cell.
func genWhatIfSim(w *workload) error {
	ctx := context.Background()
	r := newRNG(w.Seed, 3)
	seen := map[string]bool{}
	for _, t := range sweepTemplates {
		fams, err := cli.ParseFamilies(t.families)
		if err != nil {
			return err
		}
		for _, f := range fams {
			for _, b := range t.grid {
				origin := service.SearchRequest{Model: t.model, Cluster: t.cluster, Families: []string{f.Info().Key}, Batches: []int{b}, MaxMicroBatch: 16, CostModel: "paper"}
				sc, err := resolve(origin)
				if err != nil {
					return err
				}
				plans := search.Enumerate(ctx, sc.cluster, sc.model, sc.families[0], b, search.Options{MaxMicroBatch: 16, Workers: 1})
				if len(plans) == 0 {
					continue
				}
				for _, idx := range []int{0, len(plans) - 1} {
					if c, ok := simulateCase(origin, plans[idx]); ok {
						w.Warmup = append(w.Warmup, request{Class: classSim, Sim: &c.Req})
					}
				}
				for j := 0; j < simsPerCell; j++ {
					o := origin
					o.CostModel = costModels[r.intn(len(costModels))]
					c, ok := simulateCase(o, plans[(2*j+1)*len(plans)/(2*simsPerCell)])
					if k := (request{Sim: &c.Req}).key(); ok && !seen[k] {
						seen[k] = true
						w.Sims = append(w.Sims, c)
					}
				}
			}
		}
	}
	// The streams take the pool in seeded permutations, so any stretch of
	// them holds every plan about equally often.
	w.Streams = make([][]request, w.Clients)
	perm := make([]int, len(w.Sims))
	for i := 0; i < simLength; i++ {
		if i%len(perm) == 0 {
			for j := range perm {
				perm[j] = j
			}
			r.shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		}
		sc := w.Sims[perm[i%len(perm)]]
		w.Streams[i%w.Clients] = append(w.Streams[i%w.Clients], request{Class: classSim, Sim: &sc.Req})
	}
	return nil
}

// simulateCase simulates a plan of the origin scenario in process; ok is
// false when it does not simulate.
func simulateCase(origin service.SearchRequest, p core.Plan) (simCase, bool) {
	req := service.SimulateRequest{Model: origin.Model, Cluster: origin.Cluster, Plan: p, CostModel: origin.CostModel}
	sc, err := resolve(origin)
	if err != nil {
		return simCase{}, false
	}
	res, err := engine.SimulateOpts(sc.cluster, sc.model, p, engine.Options{Params: sc.params})
	if err != nil {
		return simCase{}, false
	}
	return simCase{Req: req, Origin: origin, Want: res}, true
}

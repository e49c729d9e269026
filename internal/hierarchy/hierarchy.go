// Package hierarchy models the hierarchical settings of Figure 1: a tree
// of sites (machine → production line → factory → cloud, or router →
// region → network → cloud), each hosting a data store with a Flowtree (or
// other) aggregator, connected by a simulated WAN. Rolling summaries up the
// tree — export, transfer, merge, compress — is the paper's core data
// movement (Figure 2b), and the per-level byte reduction is experiment E10.
package hierarchy

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"megadata/internal/datastore"
	"megadata/internal/flow"
	"megadata/internal/flowtree"
	"megadata/internal/primitive"
	"megadata/internal/simnet"
	"megadata/internal/uplink"
)

// Node is one site in the hierarchy.
type Node struct {
	Site     simnet.SiteID
	Level    string
	Store    *datastore.Store
	Parent   *Node
	Children []*Node
}

// Hierarchy is a tree of sites over a simulated network.
type Hierarchy struct {
	Root  *Node
	Net   *simnet.Network
	Clock *simnet.Clock
	nodes map[simnet.SiteID]*Node
	// aggName is the Flowtree aggregator registered at every store.
	aggName string
	// cfg is retained for Graft: grafted nodes get the same store
	// registration, budget and link as construction-time nodes.
	cfg Config
}

// Config parameterizes hierarchy construction.
type Config struct {
	// Levels are the level names from root to leaves, e.g.
	// ["cloud", "factory", "line", "machine"].
	Levels []string
	// Fanout[i] is the number of children each level-i node has
	// (len(Fanout) = len(Levels)-1).
	Fanout []int
	// TreeBudget is the Flowtree node budget at each store.
	TreeBudget int
	// Link is applied to every parent-child connection.
	Link simnet.Link
	// Start initializes the virtual clock.
	Start time.Time
	// ExportWorkers bounds the per-level rollup concurrency (0 = 8): how
	// many nodes of one level serialize, transfer and merge at once.
	ExportWorkers int
}

// AggregatorName is the Flowtree aggregator each node's store registers.
const AggregatorName = "flows"

// New builds a hierarchy per the config.
func New(cfg Config) (*Hierarchy, error) {
	if len(cfg.Levels) < 2 {
		return nil, errors.New("hierarchy: need at least two levels")
	}
	if len(cfg.Fanout) != len(cfg.Levels)-1 {
		return nil, errors.New("hierarchy: need one fanout per non-leaf level")
	}
	for _, f := range cfg.Fanout {
		if f < 1 {
			return nil, errors.New("hierarchy: fanout must be at least 1")
		}
	}
	if cfg.Link.BytesPerSecond <= 0 {
		cfg.Link = simnet.Link{BytesPerSecond: 10e6, Latency: 10 * time.Millisecond}
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	h := &Hierarchy{
		Net:     simnet.NewNetwork(),
		Clock:   simnet.NewClock(cfg.Start),
		nodes:   make(map[simnet.SiteID]*Node),
		aggName: AggregatorName,
		cfg:     cfg,
	}
	var build func(level int, path string, parent *Node) (*Node, error)
	build = func(level int, path string, parent *Node) (*Node, error) {
		n, err := h.newNode(path, cfg.Levels[level], parent)
		if err != nil {
			return nil, err
		}
		if level < len(cfg.Levels)-1 {
			for i := 0; i < cfg.Fanout[level]; i++ {
				child, err := build(level+1, fmt.Sprintf("%s/%s%d", path, cfg.Levels[level+1], i), n)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, child)
			}
		}
		return n, nil
	}
	root, err := build(0, cfg.Levels[0], nil)
	if err != nil {
		return nil, err
	}
	h.Root = root
	return h, nil
}

// newNode registers one site: a data store with the Flowtree aggregator
// subscribed to the "flows" stream, a simnet site, and (for non-roots) the
// configured link to its parent.
func (h *Hierarchy) newNode(path, level string, parent *Node) (*Node, error) {
	site := simnet.SiteID(path)
	if _, exists := h.nodes[site]; exists {
		return nil, fmt.Errorf("hierarchy: site %q already exists", site)
	}
	store := datastore.New(path, h.Clock.Now)
	budget := h.cfg.TreeBudget
	err := store.Register(datastore.AggregatorConfig{
		Name: h.aggName,
		New: func() (primitive.Aggregator, error) {
			return primitive.NewFlowtree(AggregatorName, budget)
		},
		Strategy:    datastore.StrategyRoundRobin,
		BudgetBytes: 64 << 20,
	})
	if err != nil {
		return nil, err
	}
	if err := store.Subscribe("flows", h.aggName); err != nil {
		return nil, err
	}
	n := &Node{Site: site, Level: level, Store: store, Parent: parent}
	h.Net.AddSite(site)
	h.nodes[site] = n
	if parent != nil {
		if err := h.Net.Connect(parent.Site, site, h.cfg.Link); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Graft adds a new site named name under parent at the given level name —
// topology churn: an aggregator or leaf joining mid-run. The node gets the
// same store registration, tree budget and link as construction-time nodes
// and participates in the next Rollup.
func (h *Hierarchy) Graft(parent simnet.SiteID, name, level string) (*Node, error) {
	p, ok := h.nodes[parent]
	if !ok {
		return nil, fmt.Errorf("hierarchy: graft under unknown site %q", parent)
	}
	n, err := h.newNode(fmt.Sprintf("%s/%s", parent, name), level, p)
	if err != nil {
		return nil, err
	}
	p.Children = append(p.Children, n)
	return n, nil
}

// Prune detaches the subtree rooted at site — topology churn: an
// aggregator or leaf leaving mid-run. Weight already merged upward stays;
// unexported weight at the pruned nodes is lost, as it would be when a real
// site disappears. The root cannot be pruned.
func (h *Hierarchy) Prune(site simnet.SiteID) error {
	n, ok := h.nodes[site]
	if !ok {
		return fmt.Errorf("hierarchy: prune unknown site %q", site)
	}
	if n.Parent == nil {
		return errors.New("hierarchy: cannot prune the root")
	}
	kept := n.Parent.Children[:0]
	for _, c := range n.Parent.Children {
		if c != n {
			kept = append(kept, c)
		}
	}
	n.Parent.Children = kept
	var detach func(*Node)
	detach = func(x *Node) {
		delete(h.nodes, x.Site)
		for _, c := range x.Children {
			detach(c)
		}
	}
	detach(n)
	return nil
}

// NewFactory builds the Figure 1a topology: cloud → factory → production
// lines → machines.
func NewFactory(lines, machinesPerLine, treeBudget int) (*Hierarchy, error) {
	return New(Config{
		Levels:     []string{"cloud", "factory", "line", "machine"},
		Fanout:     []int{1, lines, machinesPerLine},
		TreeBudget: treeBudget,
	})
}

// NewNetworkMonitoring builds the Figure 1b topology: cloud → network →
// regions → routers.
func NewNetworkMonitoring(regions, routersPerRegion, treeBudget int) (*Hierarchy, error) {
	return New(Config{
		Levels:     []string{"cloud", "network", "region", "router"},
		Fanout:     []int{1, regions, routersPerRegion},
		TreeBudget: treeBudget,
	})
}

// Leaves returns the leaf nodes in deterministic order.
func (h *Hierarchy) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if len(n.Children) == 0 {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(h.Root)
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Node returns the node at site.
func (h *Hierarchy) Node(site simnet.SiteID) (*Node, bool) {
	n, ok := h.nodes[site]
	return n, ok
}

// IngestAtLeaf feeds flow records into one leaf's data store.
func (h *Hierarchy) IngestAtLeaf(leaf *Node, recs []flow.Record) error {
	for _, r := range recs {
		if err := leaf.Store.Ingest("flows", r); err != nil {
			return err
		}
	}
	return nil
}

// LevelBytes reports, per level, how many bytes that level exported to its
// parents during a rollup.
type LevelBytes struct {
	Level string
	Bytes uint64
	Nodes int
}

// Rollup exports every node's live Flowtree to its parent, bottom-up:
// snapshot, serialize, transfer over the WAN (metered), merge into the
// parent's live tree — the paper's "A12 = compress(A1 ∪ A2)" across the
// hierarchy. Within a level the exports run through a bounded worker pool
// (Config.ExportWorkers) so slow links overlap, with a barrier between
// levels: a parent exports only after all its children merged in. Exports
// read a snapshot taken under the store locks, so leaves may keep ingesting
// concurrently.
//
// A failing node — a transient link fault, a store error — does not abort
// the pass: the rest of its level and every upper level still ship, and the
// per-node errors come back joined (errors.Join) alongside the report for
// the levels that did export. The failed node's weight is not lost: it
// stays in its live tree and rides the next rollup.
func (h *Hierarchy) Rollup() ([]LevelBytes, error) {
	perLevel := map[string]*LevelBytes{}
	// Process deepest levels first: collect nodes by depth.
	var byDepth [][]*Node
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		for len(byDepth) <= depth {
			byDepth = append(byDepth, nil)
		}
		byDepth[depth] = append(byDepth[depth], n)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(h.Root, 0)
	workers := h.cfg.ExportWorkers
	if workers <= 0 {
		workers = 8
	}
	var errs []error
	for depth := len(byDepth) - 1; depth > 0; depth-- {
		nodes := byDepth[depth]
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Site < nodes[j].Site })
		sizes := make([]uint64, len(nodes))
		nodeErrs := make([]error, len(nodes))
		uplink.ForEach(len(nodes), workers, func(i int) {
			sizes[i], nodeErrs[i] = h.exportNode(nodes[i])
		})
		for i, n := range nodes {
			if nodeErrs[i] != nil {
				errs = append(errs, nodeErrs[i])
				continue
			}
			lb := perLevel[n.Level]
			if lb == nil {
				lb = &LevelBytes{Level: n.Level}
				perLevel[n.Level] = lb
			}
			lb.Bytes += sizes[i]
			lb.Nodes++
		}
	}
	// Leaves first in the report (deepest level first).
	var out []LevelBytes
	for depth := len(byDepth) - 1; depth > 0; depth-- {
		level := byDepth[depth][0].Level
		if lb, ok := perLevel[level]; ok {
			out = append(out, *lb)
			delete(perLevel, level)
		}
	}
	return out, errors.Join(errs...)
}

// exportNode ships one node's live summary to its parent and returns the
// metered byte volume.
func (h *Hierarchy) exportNode(n *Node) (uint64, error) {
	agg, err := n.Store.SnapshotLive(h.aggName)
	if err != nil {
		return 0, fmt.Errorf("hierarchy: snapshot %s: %w", n.Site, err)
	}
	ft, ok := agg.(*primitive.FlowtreeAggregator)
	if !ok {
		return 0, fmt.Errorf("hierarchy: node %s aggregator is %T", n.Site, agg)
	}
	size := ft.Tree().SizeBytes()
	if _, err := h.Net.Transfer(n.Site, n.Parent.Site, size); err != nil {
		return 0, fmt.Errorf("hierarchy: export %s: %w", n.Site, err)
	}
	// MergeLive (rather than mutating a Live reference) keeps the rollup
	// correct even if a node's store is sharded.
	if err := n.Parent.Store.MergeLive(h.aggName, ft); err != nil {
		return 0, fmt.Errorf("hierarchy: merge into %s: %w", n.Parent.Site, err)
	}
	return size, nil
}

// RootTree returns the root's merged live Flowtree.
func (h *Hierarchy) RootTree() (*flowtree.Tree, error) {
	agg, err := h.Root.Store.Live(h.aggName)
	if err != nil {
		return nil, err
	}
	ft, ok := agg.(*primitive.FlowtreeAggregator)
	if !ok {
		return nil, fmt.Errorf("hierarchy: root aggregator is %T", agg)
	}
	return ft.Tree(), nil
}

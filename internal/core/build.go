package core

import (
	"fmt"

	"gridmutex/internal/algorithms"
	"gridmutex/internal/mutex"
	"gridmutex/internal/topology"
)

// Spec names the algorithms of a two-level composition, using the paper's
// "Intra-Inter" notation: Spec{"naimi", "martin"} is Naimi-Martin.
type Spec struct {
	Intra string
	Inter string
}

// String renders the paper's composition notation.
func (s Spec) String() string { return s.Intra + "-" + s.Inter }

// App is an application process endpoint: the workload drives Instance
// through Request/Release and receives OnAcquire through the callbacks it
// supplied at build time.
type App struct {
	// ID is the process (and topology node) identifier.
	ID mutex.ID
	// Cluster is the topology cluster the process lives in.
	Cluster int
	// Instance is the process's intra algorithm endpoint.
	Instance mutex.Instance
}

// Deployment is a wired grid: processes registered on the network,
// coordinators started, applications ready to issue requests.
type Deployment struct {
	// Apps lists the application processes in ascending ID order.
	Apps []App
	// Coordinators lists the per-cluster coordinators (empty for flat
	// deployments), in cluster order.
	Coordinators []*Coordinator
	// Procs holds the process dispatchers, indexed densely by process ID
	// (builders assign IDs 0..N-1 to topology nodes and the next integers
	// to intermediate coordinators): 8 bytes per process where a map's
	// buckets were a measurable slice of the footprint at grid scale.
	Procs []*Process
	// arena backs the Process values contiguously: one slab sized up front
	// instead of N heap objects (DESIGN.md §14). Pointers into it are
	// stable because the builders reserve the exact process count, and
	// running out is a wiring bug Register panics on.
	arena []Process
	// boxes is the envelope freelist all its processes share, an object of
	// its own so that they do not keep the Deployment alive.
	boxes *[]*pooledEnvelope
}

// Reserve sizes the arena and Procs for n processes; must run before
// Register. Procs is made at its final capacity: grown by append, one id
// at a time, it would leave a chain of dead arrays behind the live one.
func (d *Deployment) Reserve(n int) {
	d.arena, d.boxes = make([]Process, 0, n), new([]*pooledEnvelope)
	d.Procs = make([]*Process, 0, n)
}

// Register carves process id out of the arena, records it in the dense
// Procs table and registers it on fab at topology node. An exhausted arena
// panics: the builder reserved fewer processes than it creates, a wiring
// bug like registering an ID twice.
func (d *Deployment) Register(fab mutex.Fabric, id mutex.ID, node int) *Process {
	if len(d.arena) == cap(d.arena) {
		panic(fmt.Sprintf("core: process %d exceeds the %d reserved: the builder under-counted its processes", id, cap(d.arena)))
	}
	d.arena = d.arena[:len(d.arena)+1]
	p := &d.arena[len(d.arena)-1]
	p.init(id, fab.Endpoint(id), d.boxes)
	for int(id) >= len(d.Procs) {
		d.Procs = append(d.Procs, nil)
	}
	d.Procs[id] = p
	fab.RegisterAt(id, node, p)
	return p
}

// CallbackFunc supplies the application-level callbacks for an app process;
// it may return zero Callbacks if the workload polls instead.
type CallbackFunc func(id mutex.ID) mutex.Callbacks

// BuildComposed assembles the paper's two-level architecture on the given
// network: within every cluster of the grid the first node hosts the
// coordinator and the remaining nodes host application processes; the
// spec's intra algorithm runs per cluster (coordinator = initial holder)
// and its inter algorithm runs among the coordinators (cluster 0's
// coordinator = initial holder).
//
// Every cluster must have at least 2 nodes (a coordinator plus one
// application process). BuildComposed is the two-level case of
// BuildMultiLevel.
func BuildComposed(net mutex.Fabric, grid *topology.Grid, spec Spec, appCB CallbackFunc, coordOpts ...func(*Coordinator)) (*Deployment, error) {
	return BuildMultiLevel(net, grid, []string{spec.Intra, spec.Inter}, nil, appCB, coordOpts...)
}

// BuildFlat assembles the paper's baseline: a single non-hierarchical
// instance of the named algorithm spanning every node of the grid, with
// node 0 as the initial holder. All nodes are application processes.
func BuildFlat(net mutex.Fabric, grid *topology.Grid, alg string, appCB CallbackFunc) (*Deployment, error) {
	factory, err := algorithms.Factory(alg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	members := make([]mutex.ID, grid.NumNodes())
	for i := range members {
		members[i] = mutex.ID(i)
	}
	d := &Deployment{Apps: make([]App, 0, len(members))}
	d.Reserve(len(members))
	for _, id := range members {
		proc := d.Register(net, id, int(id))
		var cbs mutex.Callbacks
		if appCB != nil {
			cbs = appCB(id)
		}
		inst, err := factory(mutex.Config{
			Self: id, Members: members, Holder: 0,
			Env: proc.Env(0), Callbacks: cbs,
		})
		if err != nil {
			return nil, fmt.Errorf("core: instance for %d: %w", id, err)
		}
		proc.Attach(0, inst)
		d.Apps = append(d.Apps, App{ID: id, Cluster: grid.ClusterOf(int(id)), Instance: inst})
	}
	return d, nil
}

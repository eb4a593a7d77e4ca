// Package job launches MPI jobs: it wires a world to a transport, creates
// one process per rank, runs the rank bodies to completion, and reports
// failures. Three launchers cover the three transports: in-process (shm),
// real sockets (tcp), and the discrete-event cluster simulator (sim).
package job

import (
	"fmt"
	"sync"
	"time"

	"encmpi/internal/cluster"
	"encmpi/internal/mpi"
	"encmpi/internal/obs"
	"encmpi/internal/sched"
	"encmpi/internal/sim"
	"encmpi/internal/simnet"
	"encmpi/internal/transport/faulty"
	"encmpi/internal/transport/shm"
	"encmpi/internal/transport/simtr"
	"encmpi/internal/transport/tcp"
)

// Body is a rank's program.
type Body func(c *mpi.Comm)

// DefaultEagerThreshold is used by the real transports; the simulator takes
// its threshold from the network config.
const DefaultEagerThreshold = 64 << 10

// Options carries the cross-cutting hooks a launcher can wire into a job:
// a metrics registry (threaded to the transport and the world), a wire-fault
// plan (the transport is wrapped in the faulty adversary), and — for the
// simulator — a fabric configuration hook (e.g. a trace collector).
type Options struct {
	// Metrics, when non-nil, receives the whole job's accounting.
	Metrics *obs.Registry
	// Fault, when non-nil with a non-None mode, interposes the fault
	// injector between the world and the real transport.
	Fault *faulty.Options
	// ConfigureFabric runs against the simulated fabric before the job
	// starts; ignored by the real launchers.
	ConfigureFabric func(*simnet.Fabric)
	// EagerThreshold, when positive, overrides DefaultEagerThreshold for the
	// real transports (the simulator takes its threshold from the network
	// config): messages shorter than the threshold travel eagerly, the rest
	// by rendezvous.
	EagerThreshold int
	// ShmRingSlots and ShmRingSlotBytes configure the shm transport's
	// zero-copy slot rings (DESIGN.md §14): 0 keeps the transport defaults,
	// ShmRingSlots < 0 disables the rings (the seed's inline-copy baseline).
	// Ignored by the other launchers.
	ShmRingSlots     int
	ShmRingSlotBytes int
	// Topology maps a world rank to its node id, enabling the hierarchical
	// collectives (DESIGN.md §15). The simulator installs its cluster spec's
	// placement automatically; a non-nil Topology overrides even that.
	Topology func(rank int) int
}

// eager returns the effective eager threshold for a real launcher.
func (o Options) eager() int {
	if o.EagerThreshold > 0 {
		return o.EagerThreshold
	}
	return DefaultEagerThreshold
}

// wrapFault interposes the fault injector when the options ask for one.
func (o Options) wrapFault(tr mpi.Transport) mpi.Transport {
	if o.Fault == nil || o.Fault.Mode == faulty.None {
		return tr
	}
	ft := faulty.New(tr)
	ft.SetMetrics(o.Metrics)
	o.Fault.Apply(ft)
	return ft
}

// RunShm runs an n-rank job over the in-process transport with real
// wall-clock procs. It returns an error if any rank panicked.
func RunShm(n int, body Body) error {
	return RunShmOpts(n, Options{}, body)
}

// RunShmOpts is RunShm with job options.
func RunShmOpts(n int, opts Options, body Body) error {
	tr := shm.New()
	tr.SetMetrics(opts.Metrics)
	if opts.ShmRingSlots != 0 || opts.ShmRingSlotBytes != 0 {
		tr.SetRing(opts.ShmRingSlots, opts.ShmRingSlotBytes)
	}
	outer := opts.wrapFault(tr)
	w := mpi.NewWorld(n, outer, opts.eager())
	w.SetMetrics(opts.Metrics)
	w.SetTopology(opts.Topology)
	tr.Bind(w)
	return runReal(w, n, body)
}

// RunTCP runs an n-rank job over real loopback TCP sockets.
func RunTCP(n int, body Body) error {
	return RunTCPOpts(n, Options{}, body)
}

// RunTCPOpts is RunTCP with job options.
func RunTCPOpts(n int, opts Options, body Body) error {
	tr, err := tcp.New(n)
	if err != nil {
		return err
	}
	defer tr.Close()
	tr.SetMetrics(opts.Metrics)
	outer := opts.wrapFault(tr)
	w := mpi.NewWorld(n, outer, opts.eager())
	w.SetMetrics(opts.Metrics)
	w.SetTopology(opts.Topology)
	tr.Bind(w)
	return runReal(w, n, body)
}

// runReal launches rank goroutines with wall-clock procs.
func runReal(w *mpi.World, n int, body Body) error {
	var group sched.Group
	var wg sync.WaitGroup
	errs := make([]error, n)
	for rank := 0; rank < n; rank++ {
		comm := w.AttachRank(rank, group.Proc())
		wg.Add(1)
		go func(rank int, comm *mpi.Comm) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("rank %d panicked: %v", rank, r)
				}
			}()
			body(comm)
		}(rank, comm)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SimResult reports a simulated job's outcome.
type SimResult struct {
	// Elapsed is the virtual time when the last rank finished.
	Elapsed time.Duration
	// RankElapsed is each rank's own finish time.
	RankElapsed []time.Duration
	// Packets and Bytes count fabric traffic.
	Packets int
	Bytes   int64
	// Events counts simulator events (a determinism fingerprint).
	Events uint64
}

// RunSim runs the job on the simulated cluster and returns timing. The
// spec's placement maps ranks to nodes; cfg selects the network technology.
func RunSim(spec cluster.Spec, cfg simnet.Config, body Body) (SimResult, error) {
	return RunSimOpts(spec, cfg, Options{}, body)
}

// RunSimConfigured is RunSim with a hook to adjust the fabric before the job
// starts (e.g. attaching a trace collector).
func RunSimConfigured(spec cluster.Spec, cfg simnet.Config, configure func(*simnet.Fabric), body Body) (SimResult, error) {
	return RunSimOpts(spec, cfg, Options{ConfigureFabric: configure}, body)
}

// RunSimOpts is RunSim with job options.
func RunSimOpts(spec cluster.Spec, cfg simnet.Config, opts Options, body Body) (SimResult, error) {
	if err := spec.Validate(); err != nil {
		return SimResult{}, err
	}
	eng := sim.NewEngine()
	fab, err := simnet.New(eng, cfg, spec.NodeOf)
	if err != nil {
		return SimResult{}, err
	}
	if opts.ConfigureFabric != nil {
		opts.ConfigureFabric(fab)
	}
	tr := simtr.New(fab)
	tr.SetMetrics(opts.Metrics)
	outer := opts.wrapFault(tr)
	w := mpi.NewWorld(spec.Ranks, outer, cfg.EagerThreshold)
	w.SetMetrics(opts.Metrics)
	// The simulator always knows the placement: the spec's rank→node map is
	// the topology, so hierarchical collectives work with no extra option.
	if opts.Topology != nil {
		w.SetTopology(opts.Topology)
	} else {
		w.SetTopology(spec.NodeOf)
	}
	tr.Bind(w)

	res := SimResult{RankElapsed: make([]time.Duration, spec.Ranks)}
	panics := make([]interface{}, spec.Ranks)
	for rank := 0; rank < spec.Ranks; rank++ {
		rank := rank
		proc := eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			comm := w.AttachRank(rank, p)
			defer func() {
				if r := recover(); r != nil {
					panics[rank] = r
				}
				res.RankElapsed[rank] = p.Now()
			}()
			body(comm)
		})
		_ = proc
	}
	runErr := eng.Run()
	// A rank panic often *causes* the apparent deadlock (its peers wait for
	// messages that will never come), so report the panic first.
	for rank, p := range panics {
		if p != nil {
			return res, fmt.Errorf("rank %d panicked: %v (run result: %v)", rank, p, runErr)
		}
	}
	if runErr != nil {
		return res, runErr
	}
	for _, t := range res.RankElapsed {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	res.Packets = fab.PacketsSent
	res.Bytes = fab.BytesSent
	res.Events = eng.Executed()
	return res, nil
}

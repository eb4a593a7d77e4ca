package encmpi

import (
	"encmpi/internal/cryptopool"
	enc "encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/obs"
	"encmpi/internal/simnet"
	"encmpi/internal/trace"
	"encmpi/internal/transport/faulty"
)

// Option configures a launcher (RunShm, RunTCP, RunSim) or an encrypted
// communicator (Encrypt, EncryptWith). Options make the runtime's hooks —
// metrics, tracing, fault injection — first-class API instead of internal
// back-doors; omitting them costs nothing and keeps the zero-option
// signatures of earlier releases working unchanged.
type Option func(*config)

// config accumulates applied options.
type config struct {
	metrics        *obs.Registry
	trace          *trace.Collector
	fault          *faulty.Options
	cryptoWorkers  int
	eagerThreshold int
	pipeThreshold  int
	ringSlots      int
	ringSlotBytes  int
	topology       func(rank int) int
}

// apply folds a variadic option list. Options with process-wide effect
// (WithCryptoWorkers) take effect here, so every facade entry point honours
// them uniformly.
func buildConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.cryptoWorkers > 0 {
		cryptopool.Configure(cfg.cryptoWorkers)
	}
	return cfg
}

// jobOptions translates the facade config into launcher options.
func (c config) jobOptions() job.Options {
	o := job.Options{
		Metrics:          c.metrics,
		Fault:            c.fault,
		EagerThreshold:   c.eagerThreshold,
		ShmRingSlots:     c.ringSlots,
		ShmRingSlotBytes: c.ringSlotBytes,
		Topology:         c.topology,
	}
	if c.trace != nil {
		col := c.trace
		o.ConfigureFabric = func(f *simnet.Fabric) { f.Trace = col.Record }
	}
	return o
}

// WithMetrics threads a metrics registry through the whole run: the
// transport (messages and bytes), the MPI core (op counts, wait time,
// strays), and — for communicators wrapped inside the job body — the crypto
// engines (seal/open counts, plaintext vs. wire bytes, crypto nanoseconds,
// auth failures). Snapshot the registry after the run completes.
func WithMetrics(g *Registry) Option {
	return func(c *config) { c.metrics = g }
}

// WithCryptoWorkers sizes the process-wide crypto worker pool that the
// parallel engine dispatches chunk work to (see DESIGN.md §10). The pool is
// shared across messages, ranks, and communicators; n ≤ 0 leaves the
// GOMAXPROCS default. Resizing replaces the pool, so pass it once, at the
// first Run*/Encrypt* call, rather than per invocation.
func WithCryptoWorkers(n int) Option {
	return func(c *config) { c.cryptoWorkers = n }
}

// WithEagerThreshold sets the eager/rendezvous protocol cutover for the real
// transports (RunShm, RunTCP): messages shorter than n bytes travel eagerly
// (cloned and buffered, sender completes without the receiver), messages of n
// bytes or more go through the RTS/CTS rendezvous handshake. n ≤ 0 keeps the
// 64 KiB default. The simulator takes its threshold from the network config
// (SimConfig), not from this option.
func WithEagerThreshold(n int) Option {
	return func(c *config) { c.eagerThreshold = n }
}

// WithPipelineThreshold sets the payload size at which encrypted sends
// switch to the chunked crypto–comm overlap path (Encrypt, EncryptWith):
// from n bytes up, a message travels as independently sealed rendezvous
// chunks, with chunk k+1 sealed while chunk k is on the wire and chunks
// opened inside Wait as frames arrive (see DESIGN.md §12). n == 0 keeps
// the 256 KiB default; n < 0 disables chunking so every message travels as
// one frame — the paper's original seal-whole-message behaviour.
func WithPipelineThreshold(n int) Option {
	return func(c *config) {
		if n == 0 {
			n = enc.DefaultPipelineThreshold
		}
		c.pipeThreshold = n
	}
}

// WithShmRing configures the in-process transport's zero-copy slot rings
// (RunShm only; see DESIGN.md §14). Each communicating rank pair gets a
// fixed shared-memory ring of slots; eager payloads are sealed directly into
// a slot by the encrypted layer and opened in place by the receiver, with no
// intermediate copies. slots is the per-pair slot count (rounded up to a
// power of two; 0 keeps the 16-slot default, < 0 disables the rings — the
// inline-copy baseline), slotBytes the slot payload capacity (0 keeps the
// 64 KiB default). Messages larger than a slot, full rings, and budget-
// priced-out pairs all fall back to the pooled-copy path transparently.
func WithShmRing(slots, slotBytes int) Option {
	return func(c *config) {
		c.ringSlots = slots
		c.ringSlotBytes = slotBytes
	}
}

// WithTopology installs a rank→node map, enabling the hierarchical
// (two-level, locality-aware) collectives: HierBcast, HierAllgather,
// HierAllreduce, and HierAlltoall aggregate intra-node first and let only
// node leaders cross the network (DESIGN.md §15). RunSim installs its
// cluster spec's placement automatically — pass this only to override it or
// to teach the real launchers (RunShm, RunTCP) a placement they cannot
// detect. nodeOf must be a pure function every rank evaluates identically.
func WithTopology(nodeOf func(rank int) int) Option {
	return func(c *config) { c.topology = nodeOf }
}

// WithTrace attaches a transfer-event collector to the simulated fabric
// (RunSim only; the real transports have no event timeline — use
// WithMetrics for those). The collector is usable once the run returns.
func WithTrace(col *TraceCollector) Option {
	return func(c *config) { c.trace = col }
}

// WithFaults interposes the wire-fault adversary between the MPI core and
// the transport: corruption, drops, truncation, extension, replay,
// reordering, or duplication, per the FaultConfig. Applied faults are
// counted in the metrics registry when one is also installed.
func WithFaults(fc FaultConfig) Option {
	return func(c *config) {
		f := fc
		c.fault = &f
	}
}

// FaultConfig declares a wire-fault plan for WithFaults.
type FaultConfig = faulty.Options

// FaultMode selects the injected fault of a FaultConfig.
type FaultMode = faulty.Mode

// The fault modes.
const (
	FaultNone      FaultMode = faulty.None
	FaultCorrupt   FaultMode = faulty.Corrupt
	FaultDrop      FaultMode = faulty.Drop
	FaultTruncate  FaultMode = faulty.Truncate
	FaultExtend    FaultMode = faulty.Extend
	FaultReplay    FaultMode = faulty.Replay
	FaultReorder   FaultMode = faulty.Reorder
	FaultDuplicate FaultMode = faulty.DuplicateDelivery
	// FaultSpliceSession substitutes a ciphertext recorded on one wire lane
	// (one session) for a record of another — the cross-session splice only
	// AAD-bound sessions (NewSession) reject.
	FaultSpliceSession FaultMode = faulty.SpliceSession
	// FaultReflect bounces a copy of every matching message back at its
	// sender with the endpoints swapped; session records reject the bounce
	// because the nonce names the sealer the receiver did not match from.
	FaultReflect FaultMode = faulty.Reflect
)

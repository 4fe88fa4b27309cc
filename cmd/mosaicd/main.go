// Command mosaicd serves the deterministic simulator over HTTP: a
// bounded job queue, a fixed worker pool, and a digest-keyed result
// cache that deduplicates identical submissions, optionally backed by a
// persistent on-disk result store shared across restarts and daemons.
// See docs/SERVICE.md for the API, cache, store, and campaign
// semantics.
//
// Examples:
//
//	mosaicd                             # :8641, GOMAXPROCS workers
//	mosaicd -addr :9000 -workers 4 -queue 128
//	mosaicd -store /var/lib/mosaic/store -cache-entries 256
//
// Submit with mosaic-sim -server, mosaic-sweep -server, or
// internal/serviceclient:
//
//	mosaic-sim -server http://127.0.0.1:8641 -apps HS,CONS -policy mosaic
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, queued and
// running jobs finish (bounded by -drain-timeout), then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/store"
)

// faultFlags collects repeated -fault point=action[:arg] specs into a
// registry. A nil registry (no -fault flags) keeps the injection points
// at their zero-overhead disarmed path.
type faultFlags struct{ reg *faults.Registry }

// String renders the armed points for flag.Value's default display.
func (f *faultFlags) String() string {
	if f.reg == nil {
		return ""
	}
	return strings.Join(f.reg.Armed(), ",")
}

// Set parses one -fault flag occurrence (flag.Value) and arms the
// injection point it names; repeats accumulate into one registry.
func (f *faultFlags) Set(spec string) error {
	name, tr, err := faults.ParseSpec(spec)
	if err != nil {
		return err
	}
	if f.reg == nil {
		f.reg = faults.New()
	}
	f.reg.Arm(name, tr)
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8641", "HTTP listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "job queue bound; submissions beyond it get 429")
		storeDir     = flag.String("store", "", "persist results in the on-disk store rooted at this directory (shared across restarts and daemons; empty = in-memory only)")
		quarKeep     = flag.Int("store-quarantine-keep", store.DefaultQuarantineKeep, "with -store: keep at most this many quarantined (corrupt) files per shard directory, pruning oldest first (negative = unlimited)")
		cacheEntries = flag.Int("cache-entries", 0, "bound the in-memory cache of completed results to this many entries, evicting least-recently-served (0 = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Minute, "max time to finish in-flight runs on shutdown (0 = unbounded)")
		jobTimeout   = flag.Duration("job-timeout", 0, "per-job deadline covering queue wait and run, overridable per request via timeoutMS (0 = unbounded)")
		injected     faultFlags
	)
	flag.Var(&injected, "fault", "arm a fault injection point, e.g. server.exec.begin=panic:1 (repeatable; see internal/faults)")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("mosaicd: ")
	if injected.reg != nil {
		log.Printf("fault injection armed: %s", injected.String())
	}

	var resultStore store.ResultStore
	if *storeDir != "" {
		disk, err := store.NewDisk(*storeDir)
		if err != nil {
			log.Fatalf("opening result store: %v", err)
		}
		disk.SetQuarantineKeep(*quarKeep)
		resultStore = disk
		log.Printf("result store at %s (quarantine keep %d)", *storeDir, *quarKeep)
	}

	svc := server.New(server.Options{
		Workers:        *workers,
		QueueSize:      *queue,
		DefaultTimeout: *jobTimeout,
		Store:          resultStore,
		CacheEntries:   *cacheEntries,
		Faults:         injected.reg,
	})
	hs := &http.Server{Addr: *addr, Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (workers %d, queue %d)", *addr, *workers, *queue)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("received %s, draining (in-flight runs finish, new submissions get 503)", sig)
	}

	ctx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *drainTimeout)
		defer cancel()
	}
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		hs.Close()
		os.Exit(1)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("drained, bye")
}

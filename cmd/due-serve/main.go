// Command due-serve is the long-running solve-as-a-service server: it
// caches operators (CSR + factorized diagonal blocks + warm solver
// instances with prepared task graphs) and runs solve requests against
// them concurrently on one shared task pool, behind a bounded priority
// admission queue with per-request deadlines and per-tenant fault
// domains.
//
// Usage:
//
//	due-serve -addr :8080 -workers 8 -concurrent 4
//	due-serve -addr :8080 -preload thermal2:16384,qa8fm:8192
//
// API (JSON over HTTP):
//
//	POST /v1/matrices  {"key":"m1","gen":"thermal2","n":16384}
//	POST /v1/solve     {"matrix":"m1","solver":"cg","method":"afeir",
//	                    "precond":true,"priority":2,"due_rate":2}
//	GET  /v1/stats
//
// "batch":true is accepted and ignored: every request, multi-RHS
// clients' included, solves solo on a warm pooled instance.
//
// SIGINT/SIGTERM drain gracefully: admissions stop, queued and in-flight
// solves finish, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/matgen"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "shared task-pool size (0 = GOMAXPROCS)")
	concurrent := flag.Int("concurrent", 0, "concurrent solves (0 = default)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = default)")
	timeout := flag.Duration("timeout", 0, "default per-request budget (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 0, "operator cache cap in bytes (0 = default)")
	preload := flag.String("preload", "", "comma-separated gen:n matrices to cache at startup (key = gen)")
	flag.Parse()

	srv := serve.New(serve.Options{
		QueueDepth: *queue,
		Concurrent: *concurrent,
		Timeout:    *timeout,
		CacheBytes: *cacheBytes,
		Workers:    *workers,
	})
	if err := preloadMatrices(srv, *preload); err != nil {
		fmt.Fprintf(os.Stderr, "due-serve: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("due-serve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "due-serve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("due-serve: %v, draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx) // stop accepting, finish in-flight handlers
	srv.Drain()               // finish queued solves
	fmt.Println("due-serve: drained")
}

func preloadMatrices(srv *serve.Server, spec string) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		gen, dim, ok := strings.Cut(item, ":")
		if !ok {
			return fmt.Errorf("bad -preload entry %q (want gen:n)", item)
		}
		n, err := strconv.Atoi(dim)
		if err != nil {
			return fmt.Errorf("bad -preload dimension in %q: %v", item, err)
		}
		a, err := matgen.PaperMatrix(gen, n)
		if err != nil {
			return err
		}
		octx := srv.RegisterMatrix(gen, a, 0)
		fmt.Printf("due-serve: cached %s (n=%d nnz=%d)\n", gen, a.N, a.NNZ())
		// Only the unpreconditioned estimate: the preconditioned one counts
		// the block factors, which a context builds at its first
		// preconditioned request or first loss, not at preload.
		ops, limit := octx.IterOps(false)
		fmt.Printf("due-serve:   cg: ≈%d memory operations per iteration, inline (on its dispatcher, off the pool) below %d: %v\n", ops, limit, ops < limit)
	}
	return nil
}

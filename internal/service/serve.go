package service

import (
	"context"
	"errors"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Serve runs the HTTP API of a fresh Service on addr until the process
// receives SIGINT or SIGTERM, then shuts down gracefully. seqbistd is a
// thin wrapper around this.
func Serve(addr string, cfg Config) error {
	svc := New(cfg)
	defer svc.Close()

	srv := &http.Server{
		Addr:              addr,
		Handler:           NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}

	st := svc.Metrics().Store
	log.Printf("store: replayed %d records — %d jobs, %d sweeps, %d orphans re-enqueued (truncated tail: %v)",
		st.RecordsReplayed, st.JobsRecovered, st.SweepsRecovered, st.OrphansRequeued, st.TruncatedTail)

	errc := make(chan error, 1)
	go func() {
		log.Printf("seqbist service listening on %s (%d workers)", addr, svc.cfg.Workers)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("received %s, shutting down", sig)
		// svc.cfg is the defaulted copy, so the timeout is always set.
		ctx, cancel := context.WithTimeout(context.Background(), svc.cfg.ShutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

// Command gmreg-online closes the train→serve loop in streaming form: it
// consumes an unbounded labeled sample stream (a tailed file or a TCP
// socket), fine-tunes a logistic-regression model under the online-EM GM
// prior, and publishes a serving checkpoint to the store every N steps — so
// a running gmreg-serve watching the same store file picks each version up
// within its poll interval. The learned mixture doubles as a drift detector:
// when its (π, λ) shift beyond a threshold between windows, a "drift" event
// lands in the telemetry stream.
//
// Trainer (socket-fed):
//
//	gmreg-online -listen 127.0.0.1:9099 -store ckpt.store -key horse-colic \
//	    -publish-every 25 -telemetry online.jsonl
//
// Trainer (file tail):
//
//	gmreg-online -tail stream.csv -store ckpt.store -key horse-colic
//
// Producer (drives a trainer from a UCI dataset, flipping labels mid-stream
// to inject a distribution shift):
//
//	gmreg-online -produce -dataset horse-colic -samples 2000 -flip-at 1000 \
//	    -connect 127.0.0.1:9099
//
// The wire format is one CSV line per sample: features then a 0/1 label.
// SIGINT/SIGTERM stop the trainer cleanly after a final publish. A -store
// file that exists but does not decode stops the trainer with an error
// before it trains, so a corrupt store is never overwritten by a cold start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gmreg/internal/cli"
	"gmreg/internal/data"
	"gmreg/internal/obs"
	"gmreg/internal/online"
)

func main() {
	var (
		// Trainer stream sources (exactly one).
		tail   = flag.String("tail", "", "stream samples by tailing this CSV file")
		cursor = flag.Int64("tail-cursor", 0, "byte offset to resume the file tail from")
		listen = flag.String("listen", "", "stream samples from producers connecting to this TCP address")

		// Trainer.
		stPath       = flag.String("store", "", "checkpoint store file to publish serving versions into")
		key          = flag.String("key", "", "model key to publish under")
		batch        = flag.Int("batch", 16, "samples per SGD step")
		lr           = flag.Float64("lr", 0.05, "SGD step size")
		momentum     = flag.Float64("momentum", 0, "classical momentum coefficient")
		decay        = flag.Float64("decay", 0.9, "online-EM sufficient-statistic retention in [0,1)")
		gamma        = flag.Float64("gamma", 0, "GM Gamma-prior rate (0 = paper default)")
		k            = flag.Int("k", 0, "mixture components, pinned for the run (0 = paper default)")
		publishEvery = flag.Int("publish-every", 25, "SGD steps between serving checkpoints")
		maxSamples   = flag.Int("max-samples", 0, "stop after this many samples (0 = until the stream ends)")
		driftWindow  = flag.Int("drift-window", 20, "steps per drift-detector window")
		driftThresh  = flag.Float64("drift-threshold", 0.3, "mean |Δ(π, log λ)| between windows that counts as drift")
		driftBurnIn  = flag.Int("drift-burnin", 2, "window comparisons suppressed while EM settles (-1 disables)")
		seed         = flag.Uint64("seed", 42, "weight-init seed (unused when warm-starting)")
		telemetry    = flag.String("telemetry", "", "append publish/drift events as JSONL to this file")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics on this address (empty = off)")

		// Producer mode.
		produce = flag.Bool("produce", false, "produce a sample stream instead of training")
		dataset = flag.String("dataset", "horse-colic", "UCI dataset to stream (producer)")
		samples = flag.Int("samples", 2000, "samples to produce (cycling the dataset)")
		flipAt  = flag.Int("flip-at", 0, "invert labels from this sample on — injects a distribution shift (0 = never)")
		rate    = flag.Duration("rate", 0, "pause between produced samples (0 = as fast as possible)")
		connect = flag.String("connect", "", "send the stream to a gmreg-online -listen address")
		outFile = flag.String("out", "", "append the stream to this file (for -tail trainers)")
		dataSrc = flag.Uint64("data-seed", 1, "producer dataset generation seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *produce {
		if err := runProducer(ctx, *dataset, *dataSrc, *samples, *flipAt, *rate, *connect, *outFile); err != nil {
			fatal(err)
		}
		return
	}

	if (*tail == "") == (*listen == "") {
		fatal(errors.New("pass exactly one stream source: -tail or -listen"))
	}
	if *stPath == "" || *key == "" {
		fatal(errors.New("-store and -key are required"))
	}

	var src online.Source
	if *tail != "" {
		src = online.TailFileAt(*tail, *cursor, 0)
		log.Printf("tailing %s from byte %d", *tail, *cursor)
	} else {
		sock, err := online.ListenSocket(*listen)
		if err != nil {
			fatal(err)
		}
		src = sock
		log.Printf("listening for producers on %s", sock.Addr())
	}
	defer src.Close()
	// A cancelled ctx (SIGTERM) ends the stream mid-batch; the trainer then
	// publishes a final checkpoint before returning.
	go func() {
		<-ctx.Done()
		src.Close()
	}()

	var sink obs.Sink
	if *telemetry != "" {
		f, err := os.OpenFile(*telemetry, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		j := obs.NewJSONL(f)
		defer j.Close()
		sink = j
	}
	metrics := obs.Default
	if *metricsAddr != "" {
		srv := &http.Server{Addr: *metricsAddr, Handler: metrics.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer srv.Close()
	}

	res, err := online.Run(ctx, src, online.Config{
		Store: *stPath, Key: *key,
		Batch: *batch, LR: *lr, Momentum: *momentum,
		Decay: *decay, Gamma: *gamma, K: *k,
		PublishEvery: *publishEvery, MaxSamples: *maxSamples,
		DriftWindow: *driftWindow, DriftThreshold: *driftThresh, DriftBurnIn: *driftBurnIn,
		Seed: *seed, Sink: sink, Metrics: metrics,
	})
	if res != nil {
		start := "cold start"
		if res.WarmStarted {
			start = "warm start"
		}
		log.Printf("%s: %d samples, %d steps, %d publishes (last v%d), %d drift detections, final loss %.4f",
			start, res.Samples, res.Steps, res.Publishes, res.LastVersion.Seq, res.Drifts, res.LastLoss)
	}
	if err != nil {
		fatal(err)
	}
	if ft, ok := src.(*online.FileTail); ok {
		log.Printf("tail cursor: %d (resume with -tail-cursor)", ft.Cursor())
	}
}

// runProducer streams a UCI dataset as wire lines to a socket and/or file,
// cycling the dataset until n samples are sent and inverting labels from
// flipAt on.
func runProducer(ctx context.Context, dataset string, seed uint64, n, flipAt int, rate time.Duration, connect, outFile string) error {
	if connect == "" && outFile == "" {
		return errors.New("producer needs -connect and/or -out")
	}
	task, err := data.LoadUCI(dataset, seed)
	if err != nil {
		return err
	}
	var conn net.Conn
	if connect != "" {
		// The trainer may still be starting; retry briefly.
		for i := 0; ; i++ {
			conn, err = net.Dial("tcp", connect)
			if err == nil {
				break
			}
			if i >= 50 || ctx.Err() != nil {
				return fmt.Errorf("connecting to %s: %w", connect, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
		defer conn.Close()
	}
	var out *os.File
	if outFile != "" {
		out, err = os.OpenFile(outFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer out.Close()
	}

	buf := make([]byte, 0, 256)
	sent := 0
	for sent < n && ctx.Err() == nil {
		i := sent % task.NumSamples()
		s := online.Sample{Features: task.X[i], Label: task.Y[i]}
		if flipAt > 0 && sent >= flipAt {
			s.Label = 1 - s.Label
		}
		buf = online.AppendSample(buf[:0], s)
		if conn != nil {
			if _, err := conn.Write(buf); err != nil {
				return fmt.Errorf("after %d samples: %w", sent, err)
			}
		}
		if out != nil {
			if _, err := out.Write(buf); err != nil {
				return fmt.Errorf("after %d samples: %w", sent, err)
			}
		}
		sent++
		if rate > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(rate):
			}
		}
	}
	log.Printf("produced %d samples from %s (flip at %d)", sent, dataset, flipAt)
	return nil
}

func fatal(err error) { cli.Fatal("gmreg-online", err) }

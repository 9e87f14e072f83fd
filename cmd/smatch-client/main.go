// Command smatch-client drives an S-MATCH server as one or many user
// devices. Profiles come from the built-in synthetic datasets, so a full
// deployment can be exercised with three commands:
//
//	smatch-server -listen 127.0.0.1:7788 &
//	smatch-client -server 127.0.0.1:7788 -cmd upload-all
//	smatch-client -server 127.0.0.1:7788 -cmd query -user 7 -verify
//
// The device derives its fuzzy profile key through the server's RSA-OPRF
// (fetching the OPRF public key over the wire), uploads the encrypted
// chain, queries for matches, and verifies the results' authentication
// information.
//
// -cmd subscribe registers a standing probe instead of polling: the
// server pushes a notification over the connection whenever another user's upload lands within -maxdist of this user's
// encrypted profile, until -watch elapses or the process is interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"os/signal"
	"time"

	"smatch/internal/client"
	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/match"
	"smatch/internal/profile"
	"smatch/internal/scoring"
	"smatch/internal/wire"
)

func main() {
	var (
		server   = flag.String("server", "127.0.0.1:7788", "server address, or a comma-separated seed list (host1:port,host2:port) — the client fails over to the next seed when its current one is unreachable")
		dsName   = flag.String("dataset", "Infocom06", "deployment dataset (Infocom06, Sigcomm09, Weibo)")
		cmd      = flag.String("cmd", "", "upload | upload-all | query | remove | subscribe")
		batch    = flag.Int("batch", 64, "entries per frame for -cmd upload-all")
		userID   = flag.Uint("user", 1, "user ID within the dataset")
		topK     = flag.Int("topk", core.DefaultTopK, "results per query")
		theta    = flag.Int("theta", 8, "RS decoder threshold")
		kBits    = flag.Uint("k", 64, "plaintext size (bits)")
		verify   = flag.Bool("verify", false, "verify query results (Vf)")
		timeout  = flag.Duration("timeout", 30*time.Second, "request timeout")
		retries  = flag.Int("retries", 2, "max retries for idempotent requests (query/OPRF/remove) after connection failures; -1 disables")
		backoff  = flag.Duration("retry-backoff", 50*time.Millisecond, "base of the jittered exponential retry backoff")
		inFlight = flag.Int("inflight", 0, "cap on concurrent in-flight requests per connection (0 = client default); the server may clamp it lower")
		maxDist  = flag.Int64("maxdist", 1<<16, "order-sum distance threshold for -cmd subscribe")
		watch    = flag.Duration("watch", 0, "how long -cmd subscribe listens for pushes (0 = until interrupted)")
		weights  = flag.String("weights", "", `attribute priorities "w1,w2,..." (one per attribute; empty = unweighted) — must match the priorities the population was uploaded with, since weights are folded into key derivation`)
	)
	flag.Parse()

	if err := run(*server, *dsName, *cmd, profile.ID(*userID), *topK, *theta, *kBits, *batch, *verify, *timeout, *retries, *backoff, *inFlight, *maxDist, *watch, *weights); err != nil {
		fmt.Fprintln(os.Stderr, "smatch-client:", err)
		os.Exit(1)
	}
}

func run(server, dsName, cmd string, userID profile.ID, topK, theta int, kBits uint, batch int, verify bool, timeout time.Duration, retries int, backoff time.Duration, inFlight int, maxDist int64, watch time.Duration, weightSpec string) error {
	ds, err := dataset.ByName(dsName)
	if err != nil {
		return err
	}
	w, err := scoring.Parse(weightSpec)
	if err != nil {
		return fmt.Errorf("-weights: %w", err)
	}
	if w != nil && len(w) != ds.Schema.NumAttrs() {
		return fmt.Errorf("-weights: %d weights for the %d-attribute %s schema", len(w), ds.Schema.NumAttrs(), dsName)
	}
	conn, err := client.Dial(server, client.Options{
		Timeout: timeout, MaxRetries: retries, RetryBackoff: backoff,
		MaxInFlight: inFlight,
	})
	if err != nil {
		return err
	}
	defer conn.Close()

	oprfPK, err := conn.OPRFPublicKey()
	if err != nil {
		return fmt.Errorf("fetching OPRF key: %w", err)
	}
	sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(),
		core.Params{PlaintextBits: kBits, Theta: theta, TopK: topK, Weights: w}, oprfPK, nil)
	if err != nil {
		return err
	}

	device := func(id profile.ID) (*core.Client, error) {
		return sys.NewClient(conn, []byte(fmt.Sprintf("device-%s-%d", dsName, id)))
	}
	userProfile := func(id profile.ID) (profile.Profile, error) {
		for _, p := range ds.Profiles {
			if p.ID == id {
				return p, nil
			}
		}
		return profile.Profile{}, fmt.Errorf("user %d not in %s (%d users)", id, dsName, len(ds.Profiles))
	}

	switch cmd {
	case "upload":
		p, err := userProfile(userID)
		if err != nil {
			return err
		}
		dev, err := device(userID)
		if err != nil {
			return err
		}
		entry, _, err := dev.PrepareUpload(p)
		if err != nil {
			return err
		}
		if err := conn.Upload(entry); err != nil {
			return err
		}
		fmt.Printf("uploaded user %d (%d attributes, %d-bit chain)\n", userID, entry.Chain.NumAttrs(), entry.Chain.BitLen())
		return nil

	case "upload-all":
		// The whole dataset, -batch entries per frame: one round trip and
		// one WAL fsync per frame instead of per user.
		if batch < 1 || batch > wire.MaxUploadBatch {
			return fmt.Errorf("-batch %d out of range [1, %d]", batch, wire.MaxUploadBatch)
		}
		start := time.Now()
		entries := make([]match.Entry, 0, batch)
		for i, p := range ds.Profiles {
			dev, err := device(p.ID)
			if err != nil {
				return err
			}
			entry, _, err := dev.PrepareUpload(p)
			if err != nil {
				return fmt.Errorf("user %d: %w", p.ID, err)
			}
			entries = append(entries, entry)
			if len(entries) == batch || i == len(ds.Profiles)-1 {
				if _, err := conn.UploadBatch(entries); err != nil {
					return err
				}
				entries = entries[:0]
			}
		}
		fmt.Printf("uploaded %d users from %s in %v (%d per frame)\n",
			len(ds.Profiles), dsName, time.Since(start).Round(time.Millisecond), batch)
		return nil

	case "query":
		p, err := userProfile(userID)
		if err != nil {
			return err
		}
		dev, err := device(userID)
		if err != nil {
			return err
		}
		results, err := conn.Query(userID, topK)
		if err != nil {
			return err
		}
		fmt.Printf("user %d: %d match(es)\n", userID, len(results))
		if !verify {
			for _, r := range results {
				fmt.Printf("  match: user %d\n", r.ID)
			}
			return nil
		}
		key, err := dev.Keygen(p)
		if err != nil {
			return err
		}
		verified, rejected, err := dev.VerifyResults(key, results)
		if err != nil {
			return err
		}
		for _, r := range verified {
			fmt.Printf("  match: user %d (verified)\n", r.ID)
		}
		if rejected > 0 {
			return fmt.Errorf("%d result(s) failed Vf: fake or non-matching", rejected)
		}
		return nil

	case "remove":
		if err := conn.Remove(userID); err != nil {
			return err
		}
		fmt.Printf("removed user %d\n", userID)
		return nil

	case "subscribe":
		// Standing probe from the user's own encrypted profile material:
		// the server pushes a notification whenever another upload in the
		// same key bucket lands within -maxdist of this user's order sum.
		if maxDist < 0 {
			return fmt.Errorf("-maxdist %d is negative", maxDist)
		}
		p, err := userProfile(userID)
		if err != nil {
			return err
		}
		dev, err := device(userID)
		if err != nil {
			return err
		}
		entry, _, err := dev.PrepareUpload(p)
		if err != nil {
			return err
		}
		sub, err := conn.Subscribe(entry, big.NewInt(maxDist), 0)
		if err != nil {
			return err
		}
		fmt.Printf("subscribed as user %d (threshold %d); waiting for pushes...\n", userID, maxDist)

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if watch > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, watch)
			defer cancel()
		}
		for {
			select {
			case n, ok := <-sub.C:
				if !ok {
					return fmt.Errorf("subscription ended: connection lost")
				}
				event := "match"
				if n.Event == client.NotifyGone {
					event = "gone"
				}
				fmt.Printf("  push #%d: %s user %d", n.Seq, event, n.ID)
				if n.Dropped > 0 {
					fmt.Printf(" (%d dropped under queue pressure)", n.Dropped)
				}
				fmt.Println()
			case <-ctx.Done():
				if err := sub.Unsubscribe(); err != nil {
					return fmt.Errorf("unsubscribe: %w", err)
				}
				fmt.Printf("unsubscribed (local drops: %d)\n", sub.LocalDropped())
				return nil
			}
		}

	default:
		return fmt.Errorf("unknown -cmd %q (want upload, upload-all, query, remove or subscribe)", cmd)
	}
}

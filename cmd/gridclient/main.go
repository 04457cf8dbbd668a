// Command gridclient is the user-side CLI for the grid market daemons:
// key management, bank accounts and signed transfers, SLS queries, and
// market bids.
//
// Subcommands:
//
//	gridclient key new -out alice.key
//	gridclient key show -key alice.key
//	gridclient account create -bank URL -id alice -key alice.key
//	gridclient account show   -bank URL -id alice
//	gridclient deposit  -bank URL -id alice -amount 100
//	gridclient transfer -bank URL -from alice -to broker -amount 20 -key alice.key [-nonce n]
//	gridclient hosts    -sls URL [-min-capacity X] [-site S]
//	gridclient status   -auctioneer URL
//	gridclient bid      -auctioneer URL -bidder alice -amount 10 -deadline 1h
//	gridclient boost    -auctioneer URL -bidder alice -amount 5
//	gridclient cancel   -auctioneer URL -bidder alice
//	gridclient stats    -auctioneer URL -window hour
//	gridclient submit   -grid URL -xrsl job.xrsl [-wait]
//	gridclient timeline -grid URL -id JOBID
//	gridclient trace    -grid URL -id TRACEID
package main

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"tycoongrid/internal/arc"
	"tycoongrid/internal/auctioneerapi"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/jobapi"
	"tycoongrid/internal/sls"
	"tycoongrid/internal/tracing"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "key":
		err = keyCmd(os.Args[2:])
	case "account":
		err = accountCmd(os.Args[2:])
	case "deposit":
		err = depositCmd(os.Args[2:])
	case "transfer":
		err = transferCmd(os.Args[2:])
	case "hosts":
		err = hostsCmd(os.Args[2:])
	case "status", "bid", "boost", "cancel", "stats":
		err = marketCmd(os.Args[1], os.Args[2:])
	case "submit":
		err = submitCmd(os.Args[2:])
	case "timeline":
		err = timelineCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridclient:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gridclient <key|account|deposit|transfer|hosts|status|bid|boost|cancel|stats|submit|timeline|trace> [flags]
run "gridclient <cmd> -h" for flags`)
	os.Exit(2)
}

// keyFile is the on-disk key format: just the Ed25519 seed, base64.
type keyFile struct {
	Seed string `json:"seed"`
}

func loadKey(path string) (ed25519.PrivateKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var kf keyFile
	if err := json.Unmarshal(raw, &kf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seed, err := base64.RawURLEncoding.DecodeString(kf.Seed)
	if err != nil || len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("bad seed in %s", path)
	}
	return ed25519.NewKeyFromSeed(seed), nil
}

func keyCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("key: want new|show")
	}
	fs := flag.NewFlagSet("key", flag.ExitOnError)
	out := fs.String("out", "", "output key file (new)")
	key := fs.String("key", "", "key file (show)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch args[0] {
	case "new":
		if *out == "" {
			return fmt.Errorf("key new: -out required")
		}
		seed := make([]byte, ed25519.SeedSize)
		if _, err := rand.Read(seed); err != nil {
			return err
		}
		raw, err := json.MarshalIndent(keyFile{Seed: base64.RawURLEncoding.EncodeToString(seed)}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, raw, 0o600); err != nil {
			return err
		}
		priv := ed25519.NewKeyFromSeed(seed)
		fmt.Printf("wrote %s\npublic key: %s\n", *out,
			httpapi.EncodeKey(priv.Public().(ed25519.PublicKey)))
		return nil
	case "show":
		if *key == "" {
			return fmt.Errorf("key show: -key required")
		}
		priv, err := loadKey(*key)
		if err != nil {
			return err
		}
		fmt.Printf("public key: %s\n", httpapi.EncodeKey(priv.Public().(ed25519.PublicKey)))
		return nil
	default:
		return fmt.Errorf("key: unknown action %q", args[0])
	}
}

func accountCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("account: want create|show")
	}
	fs := flag.NewFlagSet("account", flag.ExitOnError)
	bankURL := fs.String("bank", "http://localhost:7700", "bank base URL")
	id := fs.String("id", "", "account id")
	keyPath := fs.String("key", "", "owner key file (create)")
	parent := fs.String("parent", "", "parent account (sub-accounts)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("account: -id required")
	}
	c := httpapi.NewBankClient(*bankURL, nil)
	switch args[0] {
	case "create":
		priv, err := loadKey(*keyPath)
		if err != nil {
			return err
		}
		a, err := c.CreateAccount(*id, priv.Public().(ed25519.PublicKey), *parent)
		if err != nil {
			return err
		}
		fmt.Printf("created %s (balance %s)\n", a.ID, a.Balance)
		return nil
	case "show":
		a, err := c.Account(*id)
		if err != nil {
			return err
		}
		fmt.Printf("%s balance=%s parent=%q created=%s\n", a.ID, a.Balance, a.Parent, a.Created)
		return nil
	default:
		return fmt.Errorf("account: unknown action %q", args[0])
	}
}

func depositCmd(args []string) error {
	fs := flag.NewFlagSet("deposit", flag.ExitOnError)
	bankURL := fs.String("bank", "http://localhost:7700", "bank base URL")
	id := fs.String("id", "", "account id")
	amount := fs.String("amount", "", "credits to grant")
	memo := fs.String("memo", "operator grant", "ledger memo")
	if err := fs.Parse(args); err != nil {
		return err
	}
	amt, err := bank.ParseAmount(*amount)
	if err != nil {
		return err
	}
	c := httpapi.NewBankClient(*bankURL, nil)
	if err := c.Deposit(*id, amt, *memo); err != nil {
		return err
	}
	bal, err := c.Balance(*id)
	if err != nil {
		return err
	}
	fmt.Printf("deposited %s; %s balance is now %s\n", amt, *id, bal)
	return nil
}

func transferCmd(args []string) error {
	fs := flag.NewFlagSet("transfer", flag.ExitOnError)
	bankURL := fs.String("bank", "http://localhost:7700", "bank base URL")
	from := fs.String("from", "", "source account")
	to := fs.String("to", "", "destination account")
	amount := fs.String("amount", "", "credits")
	keyPath := fs.String("key", "", "source owner key file")
	nonce := fs.String("nonce", "", "transfer nonce (default: time-derived)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	amt, err := bank.ParseAmount(*amount)
	if err != nil {
		return err
	}
	priv, err := loadKey(*keyPath)
	if err != nil {
		return err
	}
	n := *nonce
	if n == "" {
		n = fmt.Sprintf("%s-%d", *from, time.Now().UnixNano())
	}
	req := bank.TransferRequest{
		From: bank.AccountID(*from), To: bank.AccountID(*to), Amount: amt, Nonce: n,
	}
	req.Sig = ed25519.Sign(priv, req.SigningBytes())
	c := httpapi.NewBankClient(*bankURL, nil)
	receipt, err := c.Transfer(req)
	if err != nil {
		return err
	}
	fmt.Printf("transfer %s: %s -> %s %s at %s\n",
		receipt.TransferID, receipt.From, receipt.To, receipt.Amount, receipt.At)
	return nil
}

func hostsCmd(args []string) error {
	fs := flag.NewFlagSet("hosts", flag.ExitOnError)
	slsURL := fs.String("sls", "http://localhost:7701", "SLS base URL")
	minCap := fs.Float64("min-capacity", 0, "minimum capacity MHz")
	site := fs.String("site", "", "site filter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := httpapi.NewSLSClient(*slsURL, nil)
	hosts, err := c.Select(sls.Query{MinCapacityMHz: *minCap, Site: *site})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-24s %10s %5s %6s %10s %s\n",
		"HOST", "ENDPOINT", "MHZ", "CPUS", "VMS", "PRICE", "SITE")
	for _, h := range hosts {
		fmt.Printf("%-8s %-24s %10.0f %5d %6d %10.6f %s\n",
			h.ID, h.Endpoint, h.CapacityMHz, h.CPUs, h.MaxVMs, h.SpotPrice, h.Site)
	}
	return nil
}

func marketCmd(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	auct := fs.String("auctioneer", "http://localhost:7710", "auctioneer base URL")
	bidder := fs.String("bidder", "", "bidder account id")
	amount := fs.String("amount", "0", "credits")
	deadline := fs.Duration("deadline", time.Hour, "bid deadline from now")
	window := fs.String("window", "hour", "stats window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := auctioneerapi.NewClient(*auct, nil)
	switch cmd {
	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Printf("host %s: capacity %.0f MHz, spot price %.6g credits/s (%.3g per MHz), %d bidders\n",
			st.HostID, st.CapacityMHz, st.SpotPrice, st.PricePerMHz, st.Bidders)
		shares, err := c.Shares()
		if err != nil {
			return err
		}
		for _, s := range shares {
			fmt.Printf("  %-20s share %5.1f%% rate %.6g remaining %s\n",
				s.Bidder, s.Fraction*100, s.Rate, s.Remaining)
		}
		return nil
	case "bid":
		amt, err := bank.ParseAmount(*amount)
		if err != nil {
			return err
		}
		refund, err := c.PlaceBid(*bidder, amt, time.Now().Add(*deadline))
		if err != nil {
			return err
		}
		fmt.Printf("bid placed; replaced-bid refund %s\n", refund)
		return nil
	case "boost":
		amt, err := bank.ParseAmount(*amount)
		if err != nil {
			return err
		}
		if err := c.Boost(*bidder, amt); err != nil {
			return err
		}
		fmt.Println("boosted")
		return nil
	case "cancel":
		refund, err := c.CancelBid(*bidder)
		if err != nil {
			return err
		}
		fmt.Printf("cancelled; refund %s\n", refund)
		return nil
	case "stats":
		ws, err := c.WindowStats(*window)
		if err != nil {
			return err
		}
		fmt.Printf("window %s: n=%d mean=%.6g sd=%.6g skew=%+.2f kurt=%+.2f\n",
			ws.Window, ws.Count, ws.Mean, ws.StdDev, ws.Skewness, ws.Kurtosis)
		for _, b := range ws.Buckets {
			fmt.Printf("  [%.6g, %.6g): %5.1f%%\n", b.Lo, b.Hi, b.Proportion*100)
		}
		return nil
	}
	return fmt.Errorf("unknown market command %q", cmd)
}

func submitCmd(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	gridURL := fs.String("grid", "http://localhost:7750", "grid market base URL")
	xrslPath := fs.String("xrsl", "", "xRSL job description file (- for stdin)")
	wait := fs.Bool("wait", false, "poll until the job finishes, then print its timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		text []byte
		err  error
	)
	switch *xrslPath {
	case "":
		return fmt.Errorf("submit: -xrsl required")
	case "-":
		text, err = io.ReadAll(os.Stdin)
	default:
		text, err = os.ReadFile(*xrslPath)
	}
	if err != nil {
		return err
	}

	// Root the whole submission in one client-side trace: the scope makes the
	// span the parent of every RPC the typed client issues below, and the
	// traceparent header carries it into the daemon.
	tr := tracing.Default()
	span, _ := tr.StartSpan(context.Background(), "gridclient.submit")
	release := tr.PushScope(span)
	defer func() { release(); span.End() }()

	c := jobapi.NewClient(*gridURL, nil)
	jw, err := c.Submit(string(text))
	if err != nil {
		span.EndErr(err)
		return err
	}
	fmt.Printf("submitted %s (%s)\n", jw.ID, jw.State)
	fmt.Printf("trace %s\n", span.Context().TraceID)
	if !*wait {
		return nil
	}
	for {
		time.Sleep(500 * time.Millisecond)
		jw, err = c.Job(jw.ID)
		if err != nil {
			return err
		}
		if jw.State == "FINISHED" || jw.State == "FAILED" || jw.State == "KILLED" {
			break
		}
	}
	fmt.Printf("job %s: %s\n", jw.ID, jw.State)
	tl, err := c.Timeline(jw.ID)
	if err != nil {
		return err
	}
	printTimeline(tl)
	return nil
}

func timelineCmd(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	gridURL := fs.String("grid", "http://localhost:7750", "grid market base URL")
	id := fs.String("id", "", "job id (gsiftp URL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("timeline: -id required")
	}
	tl, err := jobapi.NewClient(*gridURL, nil).Timeline(*id)
	if err != nil {
		return err
	}
	printTimeline(tl)
	return nil
}

func printTimeline(tl arc.Timeline) {
	fmt.Printf("job %s state=%s", tl.JobID, tl.State)
	if tl.Error != "" {
		fmt.Printf(" error=%q", tl.Error)
	}
	if tl.TraceID != "" {
		fmt.Printf(" trace=%s", tl.TraceID)
	}
	fmt.Println()
	for _, e := range tl.Events {
		fmt.Printf("  %s  %-12s", e.Time.Format("2006-01-02T15:04:05.000"), e.Name)
		for _, a := range e.Attrs {
			fmt.Printf(" %s=%s", a.Key, a.Value)
		}
		fmt.Println()
	}
	if tl.Dropped > 0 {
		fmt.Printf("  (%d events dropped)\n", tl.Dropped)
	}
}

func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	gridURL := fs.String("grid", "http://localhost:7750", "daemon base URL")
	id := fs.String("id", "", "trace id (32 hex chars)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("trace: -id required")
	}
	client := &http.Client{Timeout: httpapi.DefaultClientTimeout}
	resp, err := client.Get(strings.TrimSuffix(*gridURL, "/") + "/debug/traces/" + url.PathEscape(*id) + "?format=tree")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, httpapi.MaxBodyBytes+1))
	if err != nil {
		return err
	}
	if len(body) > httpapi.MaxBodyBytes {
		return fmt.Errorf("trace: response exceeds %d bytes", httpapi.MaxBodyBytes)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Print(string(body))
	return nil
}

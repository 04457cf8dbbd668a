// Quickstart: the full grid-market flow in one file.
//
// It assembles the stack (PKI, bank, a 4-host Tycoon cluster, the
// best-response scheduling agent), then walks the paper's §3.1 user journey:
//
//  1. Alice gets a bank account bound to her bank key and a Grid
//     certificate for her Grid identity key (two separate keys, both local).
//  2. She transfers 50 credits to the resource broker and binds the signed
//     receipt to her Grid DN — a transfer token.
//  3. The broker verifies the token, funds a sub-account, distributes bids
//     with the Best Response algorithm, and runs her 6-chunk job.
//  4. When the job completes the unspent balance is refunded.
//
// Run with:  go run ./examples/quickstart [sampling-ratio]
//
// The optional argument is the tracer's root-sampling ratio (default 1). The
// job's timeline, printed last, is the job's own record: the same at any ratio.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"time"

	"tycoongrid/internal/agent"
	"tycoongrid/internal/bank"
	"tycoongrid/internal/grid"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
	"tycoongrid/internal/token"
	"tycoongrid/internal/tracing"
	"tycoongrid/internal/xrsl"
)

func main() {
	tracing.InitSlog("quickstart", os.Stderr, slog.LevelInfo)
	tr := tracing.Default()
	if len(os.Args) > 1 {
		ratio, err := strconv.ParseFloat(os.Args[1], 64)
		check(err)
		tr.SetSampleRatio(ratio)
	}
	// --- Assemble the market -------------------------------------------
	eng := sim.NewEngine()
	ca, err := pki.NewCA("/O=Grid/CN=DemoCA", pki.WithTimeSource(eng.Now))
	check(err)
	bankID, err := ca.Issue("/CN=Bank")
	check(err)
	brokerID, err := ca.Issue("/CN=Broker")
	check(err)

	ledger := bank.New(bankID, eng)
	_, err = ledger.CreateAccount("broker", brokerID.Public())
	check(err)

	specs := make([]grid.HostSpec, 4)
	for i := range specs {
		specs[i] = grid.HostSpec{
			ID: fmt.Sprintf("h%02d", i), CPUs: 2, CPUMHz: 2800, MaxVMs: 30,
			CreateOverhead: 30 * time.Second,
		}
	}
	cluster, err := grid.New(eng, grid.Config{Hosts: specs, ReservePrice: 1.0 / 3600})
	check(err)
	check(cluster.Start())

	verifier, err := token.NewVerifier(ledger.PublicKey(), ca.Certificate(), "broker", nil)
	check(err)
	broker, err := agent.New(agent.Config{
		Cluster: cluster, Bank: ledger, Identity: brokerID,
		Account: "broker", Verifier: verifier,
	})
	check(err)

	// --- Alice: two keys, one grant ------------------------------------
	aliceGrid, err := ca.Issue("/O=Grid/OU=KTH/CN=Alice")
	check(err)
	aliceBank, err := ca.Issue("/CN=Alice-bank-key")
	check(err)
	_, err = ledger.CreateAccount("alice", aliceBank.Public())
	check(err)
	check(ledger.Deposit("alice", 200*bank.Credit, "yearly allocation"))

	// --- Mint a transfer token (paper §3.1) -----------------------------
	req := bank.TransferRequest{From: "alice", To: "broker",
		Amount: 50 * bank.Credit, Nonce: "quickstart-1"}
	req.Sig = aliceBank.Sign(req.SigningBytes())
	receipt, err := ledger.Transfer(req)
	check(err)
	tok := token.Attach(receipt, aliceGrid)
	fmt.Printf("minted transfer token %s for %s (%s credits)\n",
		receipt.TransferID, tok.GridDN, receipt.Amount)

	// --- Submit the job --------------------------------------------------
	jr := &xrsl.JobRequest{
		JobName:    "quickstart",
		Executable: "scan.sh",
		Count:      3,             // up to 3 concurrent VMs
		WallTime:   2 * time.Hour, // bid deadline
	}
	chunks := make([]float64, 6) // 6 sub-jobs of 10 CPU-minutes each
	for i := range chunks {
		chunks[i] = 10 * 60 * 2800
	}
	// The job's root span: a failure is logged under its ids, and the
	// timeline below is printed under its trace.
	root, ctx := tr.StartSpan(context.Background(), "quickstart.job")
	job, err := broker.Submit(tok, jr, chunks)
	checkCtx(ctx, err)
	fmt.Printf("job %s submitted for %s; best response funded hosts %v\n",
		job.ID, job.DN, job.Hosts)

	// --- Run the market until the job completes -------------------------
	eng.RunFor(3 * time.Hour)

	fmt.Printf("\njob state: %s (%d/%d sub-jobs)\n", job.State, job.Completed(), job.Total())
	fmt.Printf("wall time: %.1f minutes, mean sub-job latency %.1f minutes\n",
		job.Duration().Minutes(), job.MeanLatency().Minutes())
	fmt.Printf("charged %s credits (%.2f credits/hour), on %d nodes\n",
		job.Charged, job.CostRate(), job.NodesUsed())

	brokerBal, _ := ledger.Balance("broker")
	earned, _ := ledger.Balance("grid-earnings")
	fmt.Printf("refund held at broker: %s credits; host earnings: %s credits\n",
		brokerBal, earned)

	root.End()
	fmt.Printf("\ntimeline (trace %s, sampled %v):\n", root.Context().TraceID, root.Recording())
	events, _ := broker.Timeline(job)
	for _, e := range events {
		fmt.Printf("  %s  %-12s", e.Time.Format("15:04:05"), e.Name)
		for _, a := range e.Attrs {
			fmt.Printf(" %s=%s", a.Key, a.Value)
		}
		fmt.Println()
	}
}

func check(err error) { checkCtx(context.Background(), err) }

// checkCtx exits on err, logging it with ctx so that the line carries the
// ids of ctx's span.
func checkCtx(ctx context.Context, err error) {
	if err != nil {
		slog.ErrorContext(ctx, "quickstart failed", "err", err)
		os.Exit(1)
	}
}

// Package stocktrade implements the paper's Stock Trading case study
// (§2.2, Fig. 2): a base national-trading process over FundManager,
// FinancialAnalysis, StockNotification, StockMarket, StockRegistry and
// Payment services, plus the variation services that customization
// policies add dynamically — CurrencyConversion, PESTAnalysis,
// CreditRating — and the MarketCompliance service they remove for
// small trades.
package stocktrade

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// Namespace qualifies all stock-trading payloads.
const Namespace = "urn:masc:stocktrade"

// opOf resolves the invoked operation: the WS-Addressing Action header
// when present (workflow invokes send variable payloads whose element
// name need not match the operation), otherwise the payload name.
func opOf(req *soap.Envelope) string {
	if a := soap.ReadAddressing(req); a.Action != "" {
		return a.Action
	}
	return req.PayloadName().Local
}

// Quote is one stock's market state.
type Quote struct {
	Symbol string
	Price  float64
	// Trend is the simple predictive signal in [-1, 1] the paper's
	// "very simple models" reduce to.
	Trend float64
}

// StockNotification serves "the current stock values and real-time
// market surveillance, announcements, quotes" the analysis service
// consumes. Quotes are fixed at construction, and tests change them
// with SetQuote (the push notifications of Fig. 2 simplified to pull).
type StockNotification struct {
	mu     sync.Mutex
	quotes map[string]Quote
}

var _ transport.Handler = (*StockNotification)(nil)

// NewStockNotification seeds the default market.
func NewStockNotification() *StockNotification {
	s := &StockNotification{quotes: make(map[string]Quote)}
	for _, q := range []Quote{
		{Symbol: "ACME", Price: 102.5, Trend: 0.6},
		{Symbol: "GLOBO", Price: 48.1, Trend: -0.4},
		{Symbol: "INITECH", Price: 75.0, Trend: 0.2},
		{Symbol: "HOOLI", Price: 310.4, Trend: 0.9},
		{Symbol: "VANDELAY", Price: 12.3, Trend: -0.8},
	} {
		s.quotes[q.Symbol] = q
	}
	return s
}

// Serve implements transport.Handler (operation getQuotes).
func (s *StockNotification) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "getQuotes" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown notification operation"), nil
	}
	resp := xmltree.New(Namespace, "getQuotesResponse")
	s.mu.Lock()
	symbols := make([]string, 0, len(s.quotes))
	for sym := range s.quotes {
		symbols = append(symbols, sym)
	}
	sort.Strings(symbols)
	for _, sym := range symbols {
		q := s.quotes[sym]
		e := xmltree.New(Namespace, "quote")
		e.Append(xmltree.NewText(Namespace, "symbol", q.Symbol))
		e.Append(xmltree.NewText(Namespace, "price", strconv.FormatFloat(q.Price, 'f', 2, 64)))
		e.Append(xmltree.NewText(Namespace, "trend", strconv.FormatFloat(q.Trend, 'f', 2, 64)))
		resp.Append(e)
	}
	s.mu.Unlock()
	return soap.NewRequest(resp), nil
}

// FinancialAnalysis recommends stocks: it pulls quotes from the
// notification service and ranks by trend ("based on this information,
// historical records, and predictive models built into the service
// (for our prototype, we used very simple models)").
type FinancialAnalysis struct {
	// Notification is the quote source address.
	Notification string
	// Invoker reaches the notification service.
	Invoker transport.Invoker
}

var _ transport.Handler = (*FinancialAnalysis)(nil)

// Serve implements transport.Handler (operation analyze).
func (f *FinancialAnalysis) Serve(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "analyze" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown analysis operation"), nil
	}
	quotesReq := soap.NewRequest(xmltree.New(Namespace, "getQuotes"))
	soap.Addressing{To: f.Notification, Action: "getQuotes"}.Apply(quotesReq)
	quotesResp, err := f.Invoker.Invoke(ctx, f.Notification, quotesReq)
	if err != nil {
		return nil, fmt.Errorf("stocktrade: analysis quotes: %w", err)
	}
	if quotesResp.IsFault() {
		return quotesResp, nil
	}

	best, worst := "", ""
	bestTrend, worstTrend := -2.0, 2.0
	for _, q := range quotesResp.Payload.ChildrenNamed("", "quote") {
		sym := q.ChildText("", "symbol")
		trend, err := strconv.ParseFloat(q.ChildText("", "trend"), 64)
		if err != nil {
			continue
		}
		if trend > bestTrend {
			bestTrend, best = trend, sym
		}
		if trend < worstTrend {
			worstTrend, worst = trend, sym
		}
	}
	resp := xmltree.New(Namespace, "analyzeResponse")
	resp.Append(xmltree.NewText(Namespace, "buy", best))
	resp.Append(xmltree.NewText(Namespace, "sell", worst))
	return soap.NewRequest(resp), nil
}

// FundManager verifies orders and decides trades: "the
// FundManagerService makes a decision which stock to buy/sell for the
// monetary amount requested by the investor" (buy the one best stock
// recommendation, per the paper's simple prototype decision).
type FundManager struct{}

var _ transport.Handler = (*FundManager)(nil)

// Serve implements transport.Handler (verifyOrder, decideTrade).
func (FundManager) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	switch opOf(req) {
	case "verifyOrder":
		amountText := req.Payload.ChildText("", "Amount")
		amount, err := strconv.ParseFloat(amountText, 64)
		if err != nil || amount <= 0 {
			return soap.NewFaultEnvelope(soap.FaultClient, "InvalidOrderFault: bad amount "+amountText), nil
		}
		resp := xmltree.New(Namespace, "verifyOrderResponse")
		resp.Append(xmltree.NewText(Namespace, "approved", "true"))
		resp.Append(xmltree.NewText(Namespace, "approvedAmount", amountText))
		return soap.NewRequest(resp), nil
	case "decideTrade":
		// Input carries the analysis recommendation and the order side.
		side := req.Payload.ChildText("", "side")
		if side == "" {
			side = "buy"
		}
		symbol := req.Payload.ChildText("", "buy")
		if side == "sell" {
			symbol = req.Payload.ChildText("", "sell")
		}
		resp := xmltree.New(Namespace, "decideTradeResponse")
		resp.Append(xmltree.NewText(Namespace, "symbol", symbol))
		resp.Append(xmltree.NewText(Namespace, "side", side))
		return soap.NewRequest(resp), nil
	default:
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown fund manager operation"), nil
	}
}

// StockMarket matches trades and settles them by invoking the registry
// and payment services in parallel ("when a trade match is formed, the
// StockMarketService invokes in parallel the StockRegistryService to
// transfer the stock share ownership and the PaymentService to
// transfer funds").
type StockMarket struct {
	// Registry is the StockRegistry address.
	Registry string
	// Payment is the Payment service address.
	Payment string
	// Invoker reaches both settlement services.
	Invoker transport.Invoker

	mu      sync.Mutex
	tradeID int
	book    map[string]int // symbol -> resting opposite-side interest
}

var _ transport.Handler = (*StockMarket)(nil)

// NewStockMarket builds a market with standing liquidity (so the
// simple trade matching of the paper's prototype always crosses).
func NewStockMarket(registryAddr, paymentAddr string, invoker transport.Invoker) *StockMarket {
	return &StockMarket{
		Registry: registryAddr,
		Payment:  paymentAddr,
		Invoker:  invoker,
		book:     make(map[string]int),
	}
}

// Serve implements transport.Handler (operation executeTrade).
func (m *StockMarket) Serve(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "executeTrade" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown market operation"), nil
	}
	symbol := req.Payload.ChildText("", "symbol")
	side := req.Payload.ChildText("", "side")
	amount := req.Payload.ChildText("", "Amount")
	if symbol == "" {
		return soap.NewFaultEnvelope(soap.FaultClient, "TradeFault: no symbol"), nil
	}

	m.mu.Lock()
	m.tradeID++
	id := fmt.Sprintf("trade-%d", m.tradeID)
	m.book[symbol]++
	m.mu.Unlock()

	// Parallel settlement.
	type settleResult struct {
		name string
		err  error
	}
	results := make(chan settleResult, 2)
	settle := func(name, addr, op string) {
		p := xmltree.New(Namespace, op)
		p.Append(xmltree.NewText(Namespace, "tradeID", id))
		p.Append(xmltree.NewText(Namespace, "symbol", symbol))
		p.Append(xmltree.NewText(Namespace, "side", side))
		p.Append(xmltree.NewText(Namespace, "Amount", amount))
		env := soap.NewRequest(p)
		soap.Addressing{To: addr, Action: op}.Apply(env)
		if id := soap.ProcessInstanceID(req); id != "" {
			soap.SetProcessInstanceID(env, id)
		}
		resp, err := m.Invoker.Invoke(ctx, addr, env)
		if err == nil && resp.IsFault() {
			err = resp.Fault
		}
		results <- settleResult{name: name, err: err}
	}
	go settle("registry", m.Registry, "transferOwnership")
	go settle("payment", m.Payment, "transferFunds")
	for i := 0; i < 2; i++ {
		if r := <-results; r.err != nil {
			return soap.NewFaultEnvelope(soap.FaultServer,
				fmt.Sprintf("SettlementFault: %s: %v", r.name, r.err)), nil
		}
	}

	resp := xmltree.New(Namespace, "executeTradeResponse")
	resp.Append(xmltree.NewText(Namespace, "tradeID", id))
	resp.Append(xmltree.NewText(Namespace, "status", "settled"))
	return soap.NewRequest(resp), nil
}

// LedgerService is the shared shape of StockRegistry and Payment: it
// records settlement legs keyed by trade ID.
type LedgerService struct {
	// Operation is the single operation served (transferOwnership or
	// transferFunds).
	Operation string

	mu      sync.Mutex
	records []string
}

var _ transport.Handler = (*LedgerService)(nil)

// NewStockRegistry builds the share-ownership registry.
func NewStockRegistry() *LedgerService {
	return &LedgerService{Operation: "transferOwnership"}
}

// NewPayment builds the funds-transfer service.
func NewPayment() *LedgerService {
	return &LedgerService{Operation: "transferFunds"}
}

// Serve implements transport.Handler.
func (l *LedgerService) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != l.Operation {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown operation for "+l.Operation), nil
	}
	l.mu.Lock()
	l.records = append(l.records, req.Payload.ChildText("", "tradeID"))
	l.mu.Unlock()
	resp := xmltree.New(Namespace, l.Operation+"Response")
	resp.Append(xmltree.NewText(Namespace, "status", "ok"))
	return soap.NewRequest(resp), nil
}

// CurrencyConversion converts foreign stock prices to the local
// currency — the variation service of the paper's first customization
// experiment (CC1…CCn).
type CurrencyConversion struct {
	// Rates maps currency code to AUD multiplier.
	Rates map[string]float64
}

var _ transport.Handler = (*CurrencyConversion)(nil)

// NewCurrencyConversion seeds a fixed rate table.
func NewCurrencyConversion() *CurrencyConversion {
	return &CurrencyConversion{Rates: map[string]float64{
		"USD": 1.56, "JPY": 0.0105, "EUR": 1.68, "GBP": 1.95, "AUD": 1,
	}}
}

// Serve implements transport.Handler (operation convert).
func (c *CurrencyConversion) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "convert" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown conversion operation"), nil
	}
	from := req.Payload.ChildText("", "Currency")
	if from == "" {
		from = "USD"
	}
	rate, ok := c.Rates[from]
	if !ok {
		return soap.NewFaultEnvelope(soap.FaultClient, "ConversionFault: unknown currency "+from), nil
	}
	amount, err := strconv.ParseFloat(req.Payload.ChildText("", "Amount"), 64)
	if err != nil {
		return soap.NewFaultEnvelope(soap.FaultClient, "ConversionFault: bad amount"), nil
	}
	resp := xmltree.New(Namespace, "convertResponse")
	resp.Append(xmltree.NewText(Namespace, "amountAUD", strconv.FormatFloat(amount*rate, 'f', 2, 64)))
	resp.Append(xmltree.NewText(Namespace, "rate", strconv.FormatFloat(rate, 'f', 4, 64)))
	return soap.NewRequest(resp), nil
}

// PESTAnalysis assesses "the non-financial aspects (political,
// economic, social and technology) that influence the trade" by
// country (PS1…PSn).
type PESTAnalysis struct {
	// Scores maps country to a risk score in [0, 1].
	Scores map[string]float64
}

var _ transport.Handler = (*PESTAnalysis)(nil)

// NewPESTAnalysis seeds the country risk table.
func NewPESTAnalysis() *PESTAnalysis {
	return &PESTAnalysis{Scores: map[string]float64{
		"Japan": 0.15, "USA": 0.2, "Germany": 0.18, "Brazil": 0.45, "Australia": 0.1,
	}}
}

// Serve implements transport.Handler (operation assess).
func (p *PESTAnalysis) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "assess" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown PEST operation"), nil
	}
	country := req.Payload.ChildText("", "Country")
	score, ok := p.Scores[country]
	if !ok {
		score = 0.5 // unknown countries carry medium risk
	}
	resp := xmltree.New(Namespace, "assessResponse")
	resp.Append(xmltree.NewText(Namespace, "country", country))
	resp.Append(xmltree.NewText(Namespace, "risk", strconv.FormatFloat(score, 'f', 2, 64)))
	return soap.NewRequest(resp), nil
}

// CreditRating rates an investor before large or corporate trades
// (CR1…CRn).
type CreditRating struct{}

var _ transport.Handler = (*CreditRating)(nil)

// Serve implements transport.Handler (operation rate).
func (CreditRating) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "rate" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown rating operation"), nil
	}
	profile := req.Payload.ChildText("", "Profile")
	rating := "A"
	if profile == "personal" {
		rating = "B"
	}
	resp := xmltree.New(Namespace, "rateResponse")
	resp.Append(xmltree.NewText(Namespace, "rating", rating))
	return soap.NewRequest(resp), nil
}

// MarketCompliance checks regulatory constraints; customization
// policies remove its invocation for trades below a threshold.
type MarketCompliance struct{}

var _ transport.Handler = (*MarketCompliance)(nil)

// Serve implements transport.Handler (operation checkCompliance).
func (MarketCompliance) Serve(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if opOf(req) != "checkCompliance" {
		return soap.NewFaultEnvelope(soap.FaultClient, "unknown compliance operation"), nil
	}
	resp := xmltree.New(Namespace, "checkComplianceResponse")
	resp.Append(xmltree.NewText(Namespace, "compliant", "true"))
	return soap.NewRequest(resp), nil
}

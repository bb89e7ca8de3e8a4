package bank

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/channel"
	"repro/internal/engineering"
	"repro/internal/transactions"
	"repro/internal/transparency"
	"repro/internal/values"
)

// ErrNoTransaction is returned when the branch runs without its
// transaction-transparency refinement.
var ErrNoTransaction = errors.New("bank: no ambient transaction (wrap with transparency.Transactional)")

// Branch is the bank branch computational object of Figure 2. Its state —
// accounts and the account counter — lives in a transactional store, and
// every operation reads and writes it through the ambient transaction
// (the transaction-transparency refinement of Section 9.3), so concurrent
// operations through any of the branch's interfaces are ACID.
//
// The same behaviour serves all three interface types; which operations a
// client can reach is governed by the interface type it is bound to
// (CreateAccount exists only on the BankManager interface), exactly as in
// Figure 2.
type Branch struct {
	store *transactions.Store
	limit int64
}

// NewBranch creates the branch behaviour over a transactional store.
func NewBranch(store *transactions.Store) *Branch {
	return &Branch{store: store, limit: DailyLimit}
}

// NewBranchHandler builds the deployable, transaction-transparent branch:
// the behaviour refined by transparency.Transactional over a fresh store.
func NewBranchHandler(coord *transactions.Coordinator, store *transactions.Store) channel.Handler {
	return transparency.Transactional(coord, NewBranch(store))
}

// RegisterBehavior installs the branch behaviour factory under
// "bank.branch" in a node's registry. Each object instance shares the
// given store and coordinator (a branch's accounts survive the object, as
// a real bank's would).
func RegisterBehavior(reg *engineering.BehaviorRegistry, coord *transactions.Coordinator, store *transactions.Store) {
	reg.Register("bank.branch", func(values.Value) (engineering.Behavior, error) {
		return handlerBehavior{NewBranchHandler(coord, store)}, nil
	})
}

// handlerBehavior adapts a channel.Handler to engineering.Behavior.
type handlerBehavior struct {
	channel.Handler
}

const (
	fieldBalance   = "balance"
	fieldWithdrawn = "withdrawn_today"
	fieldOpen      = "open"
	fieldOwner     = "owner"
)

// accountPrefix begins every account id the branch mints: "acct-1",
// "acct-2", … An account is stored under its id, beside the counter
// nextAccount, so an operation refuses an id of any other form before it
// reads the store: no key a client names reaches the counter.
const (
	accountPrefix = "acct-"
	nextAccount   = "meta/next_account"
)

// minted reports whether a has the form of an id the branch mints: the
// prefix and a decimal counter.
func minted(a string) bool {
	n, ok := strings.CutPrefix(a, accountPrefix)
	if !ok || n == "" {
		return false
	}
	for i := 0; i < len(n); i++ {
		if n[i] < '0' || n[i] > '9' {
			return false
		}
	}
	return true
}

// Invoke dispatches the branch operations. It expects the ambient
// transaction installed by the Transactional refinement.
func (b *Branch) Invoke(ctx context.Context, op string, args []values.Value) (string, []values.Value, error) {
	tx := transparency.TxFrom(ctx)
	if tx == nil {
		return "", nil, ErrNoTransaction
	}
	switch op {
	case "Deposit":
		return b.deposit(tx, args)
	case "Withdraw":
		return b.withdraw(tx, args)
	case "Balance":
		return b.balance(tx, args)
	case "CreateAccount":
		return b.createAccount(tx, args)
	case "CloseAccount":
		return b.closeAccount(tx, args)
	case "ResetDay":
		return b.resetDay(tx, args)
	case "ApproveLoan":
		return b.approveLoan(tx, args)
	}
	return "", nil, fmt.Errorf("bank: branch has no operation %q", op)
}

type account struct {
	balance   int64
	withdrawn int64
	open      bool
	owner     string
}

// load reads the account stored under its id. An id the branch never
// mints names no account, whatever the store holds under it.
func (b *Branch) load(tx *transactions.Tx, id string) (account, error) {
	if !minted(id) {
		return account{}, transactions.ErrNotFound
	}
	v, err := tx.Read(b.store, id)
	if err != nil {
		return account{}, err
	}
	var a account
	if f, ok := v.FieldByName(fieldBalance); ok {
		a.balance, _ = f.AsInt()
	}
	if f, ok := v.FieldByName(fieldWithdrawn); ok {
		a.withdrawn, _ = f.AsInt()
	}
	if f, ok := v.FieldByName(fieldOpen); ok {
		a.open, _ = f.AsBool()
	}
	if f, ok := v.FieldByName(fieldOwner); ok {
		a.owner, _ = f.AsString()
	}
	return a, nil
}

func (b *Branch) save(tx *transactions.Tx, id string, a account) error {
	// The field slice is built solely for this record, so handing over
	// ownership (no defensive copy) is safe and saves an allocation on the
	// hottest write path in the repository.
	return tx.Write(b.store, id, values.RecordOwned([]values.Field{
		values.F(fieldBalance, values.Int(a.balance)),
		values.F(fieldWithdrawn, values.Int(a.withdrawn)),
		values.F(fieldOpen, values.Bool(a.open)),
		values.F(fieldOwner, values.Str(a.owner)),
	}))
}

// errorTerm ends a call in the Error termination. Like every result the
// branch returns, its reason is appended to args[len(args):]: a server
// lends the spare capacity of a call's argument buffer for its results
// (see channel.Handler), and where there is none append allocates.
func errorTerm(args []values.Value, reason string) (string, []values.Value, error) {
	return "Error", append(args[len(args):], values.Str(reason)), nil
}

func (b *Branch) deposit(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	a, _ := args[1].AsString()
	d, _ := args[2].AsInt()
	if d <= 0 {
		return errorTerm(args, "deposit amount must be positive")
	}
	acct, err := b.load(tx, a)
	if err != nil {
		return errorTerm(args, "no such account: "+a)
	}
	if !acct.open {
		// Enterprise permission: "money can be deposited into an open
		// account" — the computational behaviour honours the policy.
		return errorTerm(args, "account closed: "+a)
	}
	acct.balance += d
	if err := b.save(tx, a, acct); err != nil {
		return "", nil, err
	}
	return "OK", append(args[len(args):], values.Int(acct.balance)), nil
}

func (b *Branch) withdraw(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	a, _ := args[1].AsString()
	d, _ := args[2].AsInt()
	if d <= 0 {
		return errorTerm(args, "withdrawal amount must be positive")
	}
	acct, err := b.load(tx, a)
	if err != nil {
		return errorTerm(args, "no such account: "+a)
	}
	if !acct.open {
		return errorTerm(args, "account closed: "+a)
	}
	if acct.balance < d {
		return errorTerm(args, "insufficient funds")
	}
	if acct.withdrawn+d > b.limit {
		// The information viewpoint's invariant surfaces computationally
		// as the NotToday termination (Section 5.1's signature).
		return "NotToday", append(args[len(args):], values.Int(acct.withdrawn), values.Int(b.limit)), nil
	}
	acct.balance -= d
	acct.withdrawn += d
	if err := b.save(tx, a, acct); err != nil {
		return "", nil, err
	}
	return "OK", append(args[len(args):], values.Int(acct.balance)), nil
}

func (b *Branch) balance(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	a, _ := args[1].AsString()
	acct, err := b.load(tx, a)
	if err != nil {
		return errorTerm(args, "no such account: "+a)
	}
	return "OK", append(args[len(args):], values.Int(acct.balance)), nil
}

func (b *Branch) createAccount(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	c, _ := args[0].AsString()
	next := int64(1)
	if v, err := tx.Read(b.store, nextAccount); err == nil {
		next, _ = v.AsInt()
	}
	id := accountPrefix + strconv.FormatInt(next, 10)
	if err := tx.Write(b.store, nextAccount, values.Int(next+1)); err != nil {
		return "", nil, err
	}
	if err := b.save(tx, id, account{open: true, owner: c}); err != nil {
		return "", nil, err
	}
	return "OK", append(args[len(args):], values.Str(id)), nil
}

func (b *Branch) closeAccount(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	a, _ := args[0].AsString()
	acct, err := b.load(tx, a)
	if err != nil {
		return errorTerm(args, "no such account: "+a)
	}
	acct.open = false
	if err := b.save(tx, a, acct); err != nil {
		return "", nil, err
	}
	return "OK", nil, nil
}

func (b *Branch) resetDay(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	a, _ := args[0].AsString()
	acct, err := b.load(tx, a)
	if err != nil {
		return errorTerm(args, "no such account: "+a)
	}
	acct.withdrawn = 0
	if err := b.save(tx, a, acct); err != nil {
		return "", nil, err
	}
	return "OK", nil, nil
}

func (b *Branch) approveLoan(tx *transactions.Tx, args []values.Value) (string, []values.Value, error) {
	a, _ := args[1].AsString()
	amount, _ := args[2].AsInt()
	if amount <= 0 {
		return errorTerm(args, "loan amount must be positive")
	}
	acct, err := b.load(tx, a)
	if err != nil {
		return errorTerm(args, "no such account: "+a)
	}
	if !acct.open {
		return errorTerm(args, "account closed: "+a)
	}
	// Credit policy: loans up to 10× the current balance.
	if amount > acct.balance*10 {
		return "Declined", append(args[len(args):], values.Str("amount exceeds credit limit")), nil
	}
	acct.balance += amount
	if err := b.save(tx, a, acct); err != nil {
		return "", nil, err
	}
	return "OK", append(args[len(args):], values.Int(acct.balance)), nil
}

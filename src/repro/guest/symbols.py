"""Guest kernel symbol tables.

The paper's detector never asks the guest anything at runtime: it reads
the preempted vCPU's instruction pointer and resolves it against the
guest's ``System.map`` (provided once, out of band). We reproduce that
mechanism literally: every VM carries a :class:`SymbolTable` with
synthetic-but-realistic addresses, vCPU models expose an ``ip`` register,
and the hypervisor-side detector resolves ``ip -> symbol`` with a binary
search, exactly like an address-ordered ``System.map`` lookup.

The table can be serialised to and parsed from the ``System.map`` text
format (``<hex addr> <type> <name>``) so the guest-transparency story is
testable end to end.
"""

import bisect

from ..errors import SymbolTableError

#: Where the synthetic kernel text section starts (x86-64 convention).
KERNEL_TEXT_BASE = 0xFFFFFFFF81000000

#: Bytes of text assigned to each synthetic symbol.
DEFAULT_SYMBOL_SIZE = 0x400

#: Addresses below the kernel base model user-space execution.
USER_IP = 0x0000000000400000


class Symbol:
    """One kernel symbol: a name bound to a half-open address range."""

    __slots__ = ("name", "address", "size", "module")

    def __init__(self, name, address, size=DEFAULT_SYMBOL_SIZE, module=""):
        self.name = name
        self.address = address
        self.size = size
        self.module = module

    @property
    def end(self):
        return self.address + self.size

    def __repr__(self):
        return "<Symbol %s @%#x>" % (self.name, self.address)


class SymbolTable:
    """Address-ordered kernel symbol table with ``System.map`` I/O."""

    def __init__(self, symbols=None):
        self._by_name = {}
        self._addresses = []
        self._symbols = []
        # address -> Symbol | None for every address looked up. A vCPU's
        # IP is one fixed address per symbol (or the user IP), so the
        # detector keeps this as small as the table.
        self._resolved = {}
        for symbol in symbols or []:
            self.add(symbol)

    def add(self, symbol):
        if symbol.name in self._by_name:
            raise SymbolTableError("duplicate symbol %r" % symbol.name)
        index = bisect.bisect_left(self._addresses, symbol.address)
        if index < len(self._symbols) and self._symbols[index].address < symbol.end:
            raise SymbolTableError("overlapping symbol %r" % symbol.name)
        if index > 0 and self._symbols[index - 1].end > symbol.address:
            raise SymbolTableError("overlapping symbol %r" % symbol.name)
        self._addresses.insert(index, symbol.address)
        self._symbols.insert(index, symbol)
        self._by_name[symbol.name] = symbol
        self._resolved.clear()

    def __len__(self):
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __contains__(self, name):
        return name in self._by_name

    def addr_of(self, name):
        """Start address of ``name`` (raises if unknown)."""
        try:
            return self._by_name[name].address
        except KeyError:
            raise SymbolTableError("unknown symbol %r" % name) from None

    def lookup(self, address):
        """Resolve an instruction pointer to the symbol containing it, or
        ``None`` for user-space / unmapped addresses. Each address is
        binary-searched once; repeats are one dict hit."""
        try:
            return self._resolved[address]
        except KeyError:
            symbol = self._resolved[address] = self._search(address)
            return symbol

    def _search(self, address):
        if address is None or address < KERNEL_TEXT_BASE:
            return None
        index = bisect.bisect_right(self._addresses, address) - 1
        if index < 0:
            return None
        symbol = self._symbols[index]
        if symbol.address <= address < symbol.end:
            return symbol
        return None

    def resolve_name(self, address):
        """Like :meth:`lookup` but returns the name (or ``None``)."""
        symbol = self.lookup(address)
        return symbol.name if symbol is not None else None

    def to_system_map(self):
        """Render the table in ``System.map`` text format."""
        lines = ["%016x T %s" % (s.address, s.name) for s in self._symbols]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_system_map(cls, text, symbol_size=DEFAULT_SYMBOL_SIZE):
        """Parse ``System.map`` text (address, type, name per line).

        Sizes are inferred from the gap to the next symbol, capped at
        ``symbol_size`` — the same inference a real resolver performs.
        """
        entries = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise SymbolTableError("malformed System.map line %d: %r" % (lineno, raw))
            addr_text, _type, name = parts
            try:
                address = int(addr_text, 16)
            except ValueError:
                raise SymbolTableError(
                    "bad address on System.map line %d: %r" % (lineno, raw)
                ) from None
            entries.append((address, name))
        entries.sort()
        table = cls()
        for index, (address, name) in enumerate(entries):
            if index + 1 < len(entries):
                size = min(symbol_size, entries[index + 1][0] - address)
            else:
                size = symbol_size
            table.add(Symbol(name, address, size=size))
        return table


def build_table(names, base=KERNEL_TEXT_BASE, size=DEFAULT_SYMBOL_SIZE):
    """Lay out ``names`` contiguously from ``base`` into a fresh table.

    Deterministic: the same name list always yields the same addresses,
    so traces and tests can reference addresses stably.
    """
    table = SymbolTable()
    for index, name in enumerate(names):
        table.add(Symbol(name, base + index * size, size=size))
    return table


#: Kernel functions present in the synthetic guest image. The critical
#: ones (Table 3 of the paper) are interleaved with non-critical noise
#: symbols so that detection genuinely discriminates.
DEFAULT_KERNEL_SYMBOLS = (
    "do_syscall_64",
    "irq_enter",
    "irq_exit",
    "handle_percpu_irq",
    "net_rx_action",
    "e1000_intr",
    "copy_user_generic",
    "smp_call_function_single",
    "smp_call_function_many",
    "native_queued_spin_lock_slowpath",
    "do_flush_tlb_all",
    "flush_tlb_all",
    "native_flush_tlb_others",
    "flush_tlb_func",
    "flush_tlb_current_task",
    "flush_tlb_mm_range",
    "flush_tlb_page",
    "leave_mm",
    "get_page_from_freelist",
    "free_one_page",
    "release_pages",
    "vfs_read",
    "vfs_write",
    "scheduler_ipi",
    "resched_curr",
    "kick_process",
    "sched_ttwu_pending",
    "ttwu_do_activate",
    "ttwu_do_wakeup",
    "schedule",
    "__raw_spin_unlock",
    "__raw_spin_unlock_irq",
    "_raw_spin_unlock_irqrestore",
    "_raw_spin_unlock_bh",
    "_raw_spin_lock",
    "__rwsem_do_wake",
    "rwsem_wake",
    "page_fault",
    "do_mmap",
    "do_munmap",
    "default_idle",
)


def default_guest_table():
    """The symbol table every synthetic guest image ships with."""
    return build_table(DEFAULT_KERNEL_SYMBOLS)

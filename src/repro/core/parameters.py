"""Generic description of a simulator's ordinal parameter space.

DiffTune treats the program under optimization as a black box with two kinds
of parameters (Section IV of the paper):

* *global* parameters — a single vector associated with overall simulator
  behaviour (e.g. DispatchWidth, ReorderBufferSize);
* *per-instruction* parameters — a uniform-length vector associated with each
  opcode (e.g. WriteLatency, NumMicroOps, ReadAdvanceCycles, PortMap).

Each parameter carries two constraint kinds: a lower bound and an
integer-valuedness flag.  During optimization everything is represented as
floating point; the surrogate receives ``value - lower_bound`` during
surrogate training and ``|value|`` during parameter-table training, and
extraction maps back with ``|value| + lower_bound`` rounded to integers
(Section IV, "Parameter extraction").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Name used for the PortMap field; it gets a structured sampling distribution
#: (cycles spread over a small random subset of ports) rather than a plain
#: per-entry uniform draw.
PORT_MAP_FIELD_NAME = "PortMap"


@dataclass(frozen=True)
class ParameterField:
    """One named group of parameters.

    Attributes:
        name: Field name ("WriteLatency", "DispatchWidth", ...).
        size: Vector width.  For per-instruction fields this is the width per
            opcode (e.g. 10 for the PortMap); for global fields the width of
            the global vector entry (usually 1).
        lower_bound: Minimum legal value (0 or 1 for every llvm-mca field).
        integer: Whether legal values are integers (true for every field the
            paper considers; kept explicit for extensibility).
        sample_low: Inclusive lower end of the training sampling distribution.
        sample_high: Inclusive upper end of the training sampling distribution.
    """

    name: str
    size: int
    lower_bound: int
    integer: bool
    sample_low: int
    sample_high: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("field size must be >= 1")
        if self.sample_low > self.sample_high:
            raise ValueError("sample_low must be <= sample_high")
        if self.sample_low < self.lower_bound:
            raise ValueError(f"{self.name}: sampling range must respect the lower bound")

    @property
    def scale(self) -> float:
        """Normalization scale used when feeding the field to the surrogate."""
        return float(max(self.sample_high - self.lower_bound, 1))


@dataclass
class ParameterArrays:
    """Concrete parameter values in optimization layout.

    Attributes:
        global_values: ``(global_dim,)`` float vector of global parameters.
        per_instruction_values: ``(num_opcodes, per_instruction_dim)`` float
            matrix of per-instruction parameters.
    """

    global_values: np.ndarray
    per_instruction_values: np.ndarray

    def copy(self) -> "ParameterArrays":
        return ParameterArrays(self.global_values.copy(), self.per_instruction_values.copy())

    def to_flat_vector(self) -> np.ndarray:
        return np.concatenate([self.global_values.ravel(),
                               self.per_instruction_values.ravel()])

    @classmethod
    def from_flat_vector(cls, vector: np.ndarray, global_dim: int,
                         num_opcodes: int, per_instruction_dim: int) -> "ParameterArrays":
        vector = np.asarray(vector, dtype=np.float64)
        expected = global_dim + num_opcodes * per_instruction_dim
        if vector.size != expected:
            raise ValueError(f"expected {expected} values, got {vector.size}")
        return cls(global_values=vector[:global_dim].copy(),
                   per_instruction_values=vector[global_dim:].reshape(
                       num_opcodes, per_instruction_dim).copy())


class TableStack:
    """A sequence of parameter tables stored stacked, not one array per table.

    Table ``t`` is row ``t`` of a ``(T, num_opcodes, per_instruction_dim)``
    per-instruction array and of a ``(T, global_dim)`` global array, so a
    minibatch gathers the rows of many tables in one fancy index
    (:func:`~repro.core.surrogate.batch_parameter_inputs`).  Indexing
    yields a :class:`ParameterArrays` of views.  Storage grows only through
    :meth:`reserve` or, without one, by doubling: a collector that knows
    its table count reserves it once and copies nothing afterwards.
    """

    def __init__(self, global_values: Optional[np.ndarray] = None,
                 per_instruction_values: Optional[np.ndarray] = None) -> None:
        """Adopt already stacked arrays (no copy), or start empty."""
        self._global = global_values
        self._per_instruction = per_instruction_values
        self._count = 0 if global_values is None else int(global_values.shape[0])
        self._reserved = 0

    @classmethod
    def from_tables(cls, tables: Sequence[ParameterArrays]) -> "TableStack":
        """``tables`` stacked (a :class:`TableStack` is returned as is)."""
        if isinstance(tables, TableStack):
            return tables
        stack = cls()
        stack.reserve(len(tables))
        for table in tables:
            stack.append(table)
        return stack

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> ParameterArrays:
        if not -self._count <= index < self._count:
            raise IndexError(f"table {index} out of range for {self._count} tables")
        index %= self._count
        return ParameterArrays(global_values=self._global[index],
                               per_instruction_values=self._per_instruction[index])

    @property
    def global_values(self) -> np.ndarray:
        """``(T, global_dim)`` globals of the stored tables (a view)."""
        return self._global[:self._count]

    @property
    def per_instruction_values(self) -> np.ndarray:
        """``(T, num_opcodes, per_instruction_dim)`` rows (a view)."""
        return self._per_instruction[:self._count]

    def reserve(self, capacity: int) -> None:
        """Make room for ``capacity`` tables in total (one copy at most)."""
        if self._global is None:
            self._reserved = max(self._reserved, capacity)
            return
        if capacity <= self._global.shape[0]:
            return
        global_values = np.empty((capacity,) + self._global.shape[1:])
        per_instruction = np.empty((capacity,) + self._per_instruction.shape[1:])
        global_values[:self._count] = self.global_values
        per_instruction[:self._count] = self.per_instruction_values
        self._global, self._per_instruction = global_values, per_instruction

    def append(self, table: ParameterArrays) -> None:
        """Copy ``table`` into the next row."""
        if self._global is None:
            capacity = max(self._reserved, 1)
            self._global = np.empty((capacity,) + table.global_values.shape)
            self._per_instruction = np.empty(
                (capacity,) + table.per_instruction_values.shape)
        elif self._count == self._global.shape[0]:
            self.reserve(max(2 * self._count, 1))
        self._global[self._count] = table.global_values
        self._per_instruction[self._count] = table.per_instruction_values
        self._count += 1


class ParameterSpec:
    """The full parameter-space description for one simulator."""

    def __init__(self, global_fields: Sequence[ParameterField],
                 per_instruction_fields: Sequence[ParameterField],
                 num_opcodes: int) -> None:
        if num_opcodes < 1:
            raise ValueError("num_opcodes must be >= 1")
        self.global_fields: List[ParameterField] = list(global_fields)
        self.per_instruction_fields: List[ParameterField] = list(per_instruction_fields)
        for field_ in self.global_fields + self.per_instruction_fields:
            if field_.name == PORT_MAP_FIELD_NAME and field_.size < 2:
                raise ValueError(f"{field_.name}: a PortMap field needs at least 2 ports "
                                 f"(sampling draws two distinct ones), got {field_.size}")
        self.num_opcodes = num_opcodes

    # ------------------------------------------------------------------
    # Dimensions and layout
    # ------------------------------------------------------------------
    @property
    def global_dim(self) -> int:
        return sum(field.size for field in self.global_fields)

    @property
    def per_instruction_dim(self) -> int:
        return sum(field.size for field in self.per_instruction_fields)

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count of the simulator."""
        return self.global_dim + self.num_opcodes * self.per_instruction_dim

    def _offsets(self, fields: Sequence[ParameterField]) -> Dict[str, Tuple[int, int]]:
        offsets: Dict[str, Tuple[int, int]] = {}
        cursor = 0
        for field_ in fields:
            offsets[field_.name] = (cursor, cursor + field_.size)
            cursor += field_.size
        return offsets

    def global_field_slice(self, name: str) -> slice:
        start, end = self._offsets(self.global_fields)[name]
        return slice(start, end)

    def per_instruction_field_slice(self, name: str) -> slice:
        start, end = self._offsets(self.per_instruction_fields)[name]
        return slice(start, end)

    def field_by_name(self, name: str) -> ParameterField:
        for field_ in list(self.global_fields) + list(self.per_instruction_fields):
            if field_.name == name:
                return field_
        raise KeyError(f"unknown parameter field: {name}")

    # ------------------------------------------------------------------
    # Bounds in optimization layout
    # ------------------------------------------------------------------
    def global_lower_bounds(self) -> np.ndarray:
        return np.concatenate([
            np.full(field_.size, field_.lower_bound, dtype=np.float64)
            for field_ in self.global_fields]) if self.global_fields else np.zeros(0)

    def per_instruction_lower_bounds(self) -> np.ndarray:
        return np.concatenate([
            np.full(field_.size, field_.lower_bound, dtype=np.float64)
            for field_ in self.per_instruction_fields]) if self.per_instruction_fields \
            else np.zeros(0)

    def global_scales(self) -> np.ndarray:
        return np.concatenate([
            np.full(field_.size, field_.scale, dtype=np.float64)
            for field_ in self.global_fields]) if self.global_fields else np.ones(0)

    def per_instruction_scales(self) -> np.ndarray:
        return np.concatenate([
            np.full(field_.size, field_.scale, dtype=np.float64)
            for field_ in self.per_instruction_fields]) if self.per_instruction_fields \
            else np.ones(0)

    # ------------------------------------------------------------------
    # Flat search vectors (the black-box baselines' genome)
    # ------------------------------------------------------------------
    def sample_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-dimension ``(low, high)`` sampling ranges in flat-vector layout.

        The black-box baselines search this box, the same ranges DiffTune
        samples tables from.
        """
        def flat(attribute: str) -> np.ndarray:
            global_part = np.concatenate([
                np.full(field_.size, getattr(field_, attribute), dtype=np.float64)
                for field_ in self.global_fields]) if self.global_fields else np.zeros(0)
            per_instruction_part = np.concatenate([
                np.full(field_.size, getattr(field_, attribute), dtype=np.float64)
                for field_ in self.per_instruction_fields])
            return np.concatenate([global_part,
                                   np.tile(per_instruction_part, self.num_opcodes)])

        return flat("sample_low"), flat("sample_high")

    def rounded_arrays(self, vector: np.ndarray) -> ParameterArrays:
        """The parameter arrays of a flat search vector, rounded to integers."""
        return ParameterArrays.from_flat_vector(
            np.round(vector), self.global_dim, self.num_opcodes, self.per_instruction_dim)

    # ------------------------------------------------------------------
    # Sampling (the 𝐷 distribution of the paper)
    # ------------------------------------------------------------------
    #: Revision of the draws :meth:`sample` makes from an rng.  Run, campaign
    #: and matrix fingerprints digest it, so a checkpoint drawn by another
    #: sampler is refused instead of resumed with mixed draws.  Bump it
    #: whenever the draws change (2: each PortMap drawn as whole arrays).
    SAMPLER_REVISION = 2

    def _sample_field(self, field_: ParameterField, rows: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Sample one field for ``rows`` opcodes (or one global row)."""
        if field_.name == PORT_MAP_FIELD_NAME:
            # The paper samples each PortMap as "0 to 2 cycles to between 0 and
            # 2 randomly selected ports" — most entries are zero.  The cycle
            # range follows the field's sampling bounds so narrower sampling
            # configurations stay consistent.  Each row draws two distinct
            # ports and two cycle values and keeps the first `count` of them.
            values = np.zeros((rows, field_.size), dtype=np.float64)
            num_ports_used = rng.integers(0, 3, size=rows)
            first = rng.integers(0, field_.size, size=rows)
            second = rng.integers(0, field_.size - 1, size=rows)
            second += second >= first
            cycles = rng.integers(field_.sample_low, field_.sample_high + 1, size=(rows, 2))
            used = np.flatnonzero(num_ports_used >= 1)
            values[used, first[used]] = cycles[used, 0]
            used = np.flatnonzero(num_ports_used == 2)
            values[used, second[used]] = cycles[used, 1]
            return values
        return rng.integers(field_.sample_low, field_.sample_high + 1,
                            size=(rows, field_.size)).astype(np.float64)

    def sample(self, rng: np.random.Generator) -> ParameterArrays:
        """Sample a full parameter table from the training distribution."""
        global_parts = [self._sample_field(field_, 1, rng).reshape(-1)
                        for field_ in self.global_fields]
        per_instruction_parts = [self._sample_field(field_, self.num_opcodes, rng)
                                 for field_ in self.per_instruction_fields]
        global_values = np.concatenate(global_parts) if global_parts else np.zeros(0)
        per_instruction_values = (np.concatenate(per_instruction_parts, axis=1)
                                  if per_instruction_parts
                                  else np.zeros((self.num_opcodes, 0)))
        return ParameterArrays(global_values=global_values,
                               per_instruction_values=per_instruction_values)

    def sample_near(self, center: ParameterArrays, rng: np.random.Generator,
                    spread: float = 0.25) -> ParameterArrays:
        """Sample a table near ``center`` (local-surrogate refinement).

        Each value is perturbed by a uniform offset of up to ``spread`` times
        the field's scale, then clipped to the field's sampling range.  Used
        by the iterative refinement rounds, which re-train the surrogate in a
        neighbourhood of the current parameter estimate (the local-surrogate
        strategy the paper points to in its discussion of sampling
        distributions).
        """
        global_scales = self.global_scales()
        per_scales = self.per_instruction_scales()
        global_low = self.global_lower_bounds()
        per_low = self.per_instruction_lower_bounds()
        global_values = center.global_values + rng.uniform(
            -spread, spread, size=center.global_values.shape) * global_scales
        per_values = center.per_instruction_values + rng.uniform(
            -spread, spread, size=center.per_instruction_values.shape) * per_scales
        global_values = np.clip(global_values, global_low, global_low + global_scales)
        per_values = np.clip(per_values, per_low, per_low + per_scales)
        return ParameterArrays(global_values=global_values,
                               per_instruction_values=per_values)

    # ------------------------------------------------------------------
    # Surrogate input transforms
    # ------------------------------------------------------------------
    def normalize_for_surrogate_training(self, arrays: ParameterArrays) -> ParameterArrays:
        """Transform sampled values into surrogate inputs (subtract lower bound)."""
        global_values = (arrays.global_values - self.global_lower_bounds()) / self.global_scales()
        per_instruction = ((arrays.per_instruction_values - self.per_instruction_lower_bounds())
                           / self.per_instruction_scales())
        return ParameterArrays(global_values=global_values,
                               per_instruction_values=per_instruction)

    def clip_to_bounds(self, arrays: ParameterArrays) -> ParameterArrays:
        """Clip values to their lower bounds (used by black-box baselines)."""
        global_values = np.maximum(arrays.global_values, self.global_lower_bounds())
        per_instruction = np.maximum(arrays.per_instruction_values,
                                     self.per_instruction_lower_bounds())
        return ParameterArrays(global_values=global_values,
                               per_instruction_values=per_instruction)

    def round_to_integers(self, arrays: ParameterArrays) -> ParameterArrays:
        """Round integer-constrained fields (all llvm-mca fields are integer)."""
        rounded = arrays.copy()
        cursor = 0
        for field_ in self.global_fields:
            if field_.integer:
                rounded.global_values[cursor:cursor + field_.size] = np.round(
                    rounded.global_values[cursor:cursor + field_.size])
            cursor += field_.size
        cursor = 0
        for field_ in self.per_instruction_fields:
            if field_.integer:
                rounded.per_instruction_values[:, cursor:cursor + field_.size] = np.round(
                    rounded.per_instruction_values[:, cursor:cursor + field_.size])
            cursor += field_.size
        return rounded

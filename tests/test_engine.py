"""The shared Engine: config consolidation and memoized state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CompressionPlan, TableCompressor
from repro.dtypes import INT64, STRING
from repro.errors import ValidationError
from repro.query import Count, Engine, EngineConfig, Eq, Sum
from repro.storage import Catalog, Table


def _table(n: int = 2_000, seed: int = 5) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        [
            ("ship", INT64, np.arange(n, dtype=np.int64) + 8_000),
            ("v", INT64, rng.integers(0, 500, n)),
            ("tag", STRING, [f"tag_{i}" for i in rng.integers(0, 7, n)]),
        ]
    )


def _relation(table: Table | None = None, block_size: int = 250):
    table = table if table is not None else _table()
    plan = CompressionPlan.vertical_only(table.schema)
    return TableCompressor(plan, block_size=block_size).compress(table)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.workers == 1
        assert config.use_statistics and config.use_dictionary and config.use_kernels

    def test_with_overrides(self):
        config = EngineConfig().with_overrides(workers=4, use_kernels=False)
        assert config.workers == 4
        assert not config.use_kernels
        # The original is immutable and unchanged.
        assert EngineConfig().use_kernels

    def test_with_overrides_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown EngineConfig field"):
            EngineConfig().with_overrides(worker_count=4)


class TestEngineSharedState:
    def test_compiler_memoized_per_relation(self):
        relation = _relation()
        with Engine() as engine:
            assert engine.compiler_for(relation) is engine.compiler_for(relation)
            # A different relation gets its own compiler.
            other = _relation()
            assert engine.compiler_for(other) is not engine.compiler_for(relation)

    def test_compiler_cache_is_bounded(self):
        table = _table(100)
        with Engine() as engine:
            first = _relation(table, block_size=50)
            engine.compiler_for(first)
            for _ in range(Engine.MAX_CACHED_COMPILERS):
                engine.compiler_for(_relation(table, block_size=50))
            # The first compiler fell off the LRU; a new one is built.
            assert engine.compiler_for(first) is not None
            assert len(engine._compilers) <= Engine.MAX_CACHED_COMPILERS

    def test_shared_worker_pool_across_relations(self):
        with Engine(EngineConfig(workers=2)) as engine:
            a = engine.compiler_for(_relation())
            b = engine.compiler_for(_relation())
            assert a.engine._shared_pool is b.engine._shared_pool is not None

    def test_serial_engine_has_no_pool(self):
        with Engine(EngineConfig(workers=1)) as engine:
            compiler = engine.compiler_for(_relation())
            assert compiler.engine._shared_pool is None

    def test_query_results_match_direct_path(self):
        relation = _relation()
        with Engine(EngineConfig(workers=2)) as engine:
            shared = (
                engine.query(relation)
                .where(Eq("tag", "tag_1"))
                .agg(n=Count(), total=Sum("v"))
                .execute()
            )
        direct = (
            relation.query().where(Eq("tag", "tag_1")).agg(n=Count(), total=Sum("v")).execute()
        )
        assert shared.columns == direct.columns

    def test_executor_adapter_shares_compiler(self):
        relation = _relation()
        with Engine() as engine:
            query = engine.query(relation)
            assert query._compiler() is engine.compiler_for(relation)
            predicate = Eq("tag", "tag_2")
            assert query.where(predicate).count() == relation.query().where(predicate).count()

    def test_closed_engine_rejects_use(self):
        engine = Engine()
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(ValidationError, match="closed"):
            engine.compiler_for(_relation())
        with pytest.raises(ValidationError, match="closed"):
            engine.query(_relation())


class TestEngineCatalog:
    def test_table_memoized_and_shared_cache(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("t", _relation())
        with Engine(catalog=tmp_path / "cat") as engine:
            one = engine.table("t")
            assert engine.table("t") is one
            assert engine.tables() == {"t": one}
            assert one._cache is engine.cache

    def test_refresh_table_drops_stale_state(self, tmp_path):
        catalog = Catalog(tmp_path / "cat")
        catalog.save("t", _relation())
        with Engine(catalog=catalog) as engine:
            stale = engine.table("t")
            engine.compiler_for(stale)
            catalog.save("t", _relation(_table(500)), overwrite=True)
            fresh = engine.refresh_table("t")
            assert fresh is not stale
            assert fresh.n_rows == 500
            assert stale.cache_token not in engine._compilers

    def test_no_catalog_raises(self):
        with Engine() as engine:
            with pytest.raises(ValidationError, match="no catalog"):
                engine.table("t")

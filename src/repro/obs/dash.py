"""Self-contained HTML dashboard over the run-history ledger.

``render_dashboard`` turns one :meth:`HistoryLedger.export` dict into a
single static HTML file: inline CSS, inline JS, hand-rolled SVG charts,
zero network requests, zero dependencies.  The ledger data is embedded
verbatim in a ``<script type="application/json" id="ledger-data">``
block — the page is a pure function of that blob, and tests compare the
blob against a fresh export to prove the dashboard shows the ledger and
nothing else.

Panels: headline stat tiles, ILP per machine for the latest run,
per-cause stall stacked bars, cache/replay-memo hit-rate trends, a
flaky-cell table (every cell ever retried/degraded/failed, with attempt
histories), and per-track resource telemetry when runs carried it.

Colors follow the repo's chart conventions: categorical hues assigned
in fixed slot order, light and dark palettes as CSS custom properties
switched by ``prefers-color-scheme``, series identity carried by the
legend and marks (text stays in ink tokens).
"""

from __future__ import annotations

import json

#: Fixed categorical slot order (light, dark) — assigned to series in
#: this order, never cycled past the end (the JS folds the rest).
_PALETTE = [
    ("#2a78d6", "#3987e5"),   # 1 blue
    ("#eb6834", "#d95926"),   # 2 orange
    ("#1baf7a", "#199e70"),   # 3 aqua
    ("#eda100", "#c98500"),   # 4 yellow
    ("#e87ba4", "#d55181"),   # 5 magenta
    ("#008300", "#008300"),   # 6 green
    ("#4a3aa7", "#9085e9"),   # 7 violet
    ("#e34948", "#e66767"),   # 8 red
]

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --status-critical: #d03b3b;
  --status-warning: #fab219;
%(light_slots)s
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255,255,255,0.10);
%(dark_slots)s
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
h1 { font-size: 20px; margin: 0 0 4px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .value { font-size: 24px; font-weight: 600; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-bottom: 20px;
}
.panel h2 { font-size: 15px; margin: 0 0 2px; }
.panel .note { color: var(--text-secondary); font-size: 12px;
               margin: 0 0 10px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0 8px;
          font-size: 12px; color: var(--text-secondary); }
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
svg text { fill: var(--text-muted); font-size: 11px;
           font-family: inherit; }
svg .tick { font-variant-numeric: tabular-nums; }
table { border-collapse: collapse; width: 100%%; font-size: 13px; }
th { text-align: left; color: var(--text-secondary); font-weight: 600;
     border-bottom: 1px solid var(--axis); padding: 6px 10px 6px 0; }
td { border-bottom: 1px solid var(--grid); padding: 6px 10px 6px 0;
     font-variant-numeric: tabular-nums; }
td.status-failed { color: var(--status-critical); font-weight: 600; }
td.status-degraded, td.status-retried { color: var(--text-primary); }
.empty { color: var(--text-muted); font-style: italic; }
#tooltip {
  position: fixed; pointer-events: none; display: none; z-index: 10;
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 6px 10px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.25);
}
"""

_JS = r"""
'use strict';
const DATA = JSON.parse(
  document.getElementById('ledger-data').textContent);
const PALETTE = document.body.dataset.palette.split(',');
const color = i => `var(--series-${Math.min(i, PALETTE.length - 1) + 1})`;

const tooltip = document.getElementById('tooltip');
function hover(el, html) {
  el.addEventListener('mousemove', ev => {
    tooltip.innerHTML = html;
    tooltip.style.display = 'block';
    tooltip.style.left = (ev.clientX + 14) + 'px';
    tooltip.style.top = (ev.clientY + 14) + 'px';
  });
  el.addEventListener('mouseleave', () => {
    tooltip.style.display = 'none';
  });
}

const NS = 'http://www.w3.org/2000/svg';
function svgEl(tag, attrs) {
  const el = document.createElementNS(NS, tag);
  for (const [k, v] of Object.entries(attrs || {})) {
    el.setAttribute(k, v);
  }
  return el;
}

function fmt(v) {
  if (v == null || Number.isNaN(v)) return '–';
  if (Math.abs(v) >= 1e6) return (v / 1e6).toFixed(2) + 'M';
  if (Math.abs(v) >= 1e3) return (v / 1e3).toFixed(1) + 'k';
  if (Number.isInteger(v)) return String(v);
  return v.toPrecision(4);
}

function legend(container, names) {
  if (names.length < 2) return;
  const box = document.createElement('div');
  box.className = 'legend';
  names.forEach((name, i) => {
    const item = document.createElement('span');
    const sw = document.createElement('span');
    sw.className = 'swatch';
    sw.style.background = color(i);
    item.appendChild(sw);
    item.appendChild(document.createTextNode(name));
    box.appendChild(item);
  });
  container.appendChild(box);
}

function chartFrame(container, w, h, pad) {
  const svg = svgEl('svg', {
    viewBox: `0 0 ${w} ${h}`, width: '100%',
    preserveAspectRatio: 'xMidYMid meet',
  });
  container.appendChild(svg);
  return svg;
}

function yTicks(svg, pad, w, h, yMax, unit) {
  const n = 4;
  for (let i = 0; i <= n; i++) {
    const value = yMax * i / n;
    const y = h - pad.b - (h - pad.t - pad.b) * i / n;
    svg.appendChild(svgEl('line', {
      x1: pad.l, x2: w - pad.r, y1: y, y2: y,
      stroke: i === 0 ? 'var(--axis)' : 'var(--grid)',
      'stroke-width': 1,
    }));
    const label = svgEl('text', {
      x: pad.l - 6, y: y + 3.5, 'text-anchor': 'end', class: 'tick',
    });
    label.textContent = fmt(value) + (unit || '');
    svg.appendChild(label);
  }
}

// series: [{name, points: [{x label, y}]}] — shared x categories.
function lineChart(container, series, xLabels, unit) {
  legend(container, series.map(s => s.name));
  const w = 640, h = 220, pad = {l: 52, r: 12, t: 10, b: 26};
  const svg = chartFrame(container, w, h, pad);
  const yMax = Math.max(1e-12, ...series.flatMap(
    s => s.points.map(p => p.y ?? 0))) * 1.08;
  yTicks(svg, pad, w, h, yMax, unit);
  const n = xLabels.length;
  const x = i => n === 1 ? (pad.l + w - pad.r) / 2
    : pad.l + (w - pad.l - pad.r) * i / (n - 1);
  const y = v => h - pad.b - (h - pad.t - pad.b) * v / yMax;
  xLabels.forEach((lab, i) => {
    if (n > 12 && i % Math.ceil(n / 12) !== 0) return;
    const t = svgEl('text', {
      x: x(i), y: h - pad.b + 16, 'text-anchor': 'middle', class: 'tick',
    });
    t.textContent = lab;
    svg.appendChild(t);
  });
  series.forEach((s, si) => {
    const pts = s.points
      .map((p, i) => p.y == null ? null : `${x(i)},${y(p.y)}`)
      .filter(Boolean);
    if (pts.length > 1) {
      svg.appendChild(svgEl('polyline', {
        points: pts.join(' '), fill: 'none', stroke: color(si),
        'stroke-width': 2, 'stroke-linejoin': 'round',
      }));
    }
    s.points.forEach((p, i) => {
      if (p.y == null) return;
      const dot = svgEl('circle', {
        cx: x(i), cy: y(p.y), r: 4, fill: color(si),
        stroke: 'var(--surface-1)', 'stroke-width': 2,
      });
      hover(dot, `<b>${s.name}</b><br>${xLabels[i]}: ${fmt(p.y)}` +
            (unit || ''));
      svg.appendChild(dot);
    });
  });
}

// items: [{label, value}] — one series of vertical bars.
function barChart(container, items, unit) {
  const w = 640, h = 220, pad = {l: 52, r: 12, t: 10, b: 40};
  const svg = chartFrame(container, w, h, pad);
  const yMax = Math.max(1e-12, ...items.map(d => d.value ?? 0)) * 1.08;
  yTicks(svg, pad, w, h, yMax, unit);
  const n = items.length;
  const band = (w - pad.l - pad.r) / Math.max(1, n);
  const bw = Math.min(42, band - 2);
  items.forEach((d, i) => {
    const cx = pad.l + band * i + band / 2;
    const y0 = h - pad.b;
    const y1 = y0 - (h - pad.t - pad.b) * (d.value ?? 0) / yMax;
    const bar = svgEl('path', {
      d: `M${cx - bw / 2},${y0} L${cx - bw / 2},${y1 + 4}
          Q${cx - bw / 2},${y1} ${cx - bw / 2 + 4},${y1}
          L${cx + bw / 2 - 4},${y1}
          Q${cx + bw / 2},${y1} ${cx + bw / 2},${y1 + 4}
          L${cx + bw / 2},${y0} Z`,
      fill: color(0),
    });
    hover(bar, `<b>${d.label}</b><br>${fmt(d.value)}` + (unit || ''));
    svg.appendChild(bar);
    const t = svgEl('text', {
      x: cx, y: h - pad.b + 16, 'text-anchor': 'middle', class: 'tick',
    });
    t.textContent = d.label;
    svg.appendChild(t);
  });
}

// rows: [{label, parts: [v1..vk]}], stacked with 2px surface gaps.
function stackedBars(container, rows, partNames, unit) {
  legend(container, partNames);
  const w = 640, h = 240, pad = {l: 60, r: 12, t: 10, b: 40};
  const svg = chartFrame(container, w, h, pad);
  const yMax = Math.max(
    1e-12, ...rows.map(r => r.parts.reduce((a, b) => a + (b || 0), 0)),
  ) * 1.08;
  yTicks(svg, pad, w, h, yMax, unit);
  const n = rows.length;
  const band = (w - pad.l - pad.r) / Math.max(1, n);
  const bw = Math.min(46, band - 2);
  rows.forEach((r, i) => {
    const cx = pad.l + band * i + band / 2;
    let y0 = h - pad.b;
    r.parts.forEach((v, pi) => {
      if (!v) return;
      const hh = (h - pad.t - pad.b) * v / yMax;
      const rect = svgEl('rect', {
        x: cx - bw / 2, y: y0 - hh + 1, width: bw,
        height: Math.max(0, hh - 2), fill: color(pi),
      });
      hover(rect,
            `<b>${r.label}</b><br>${partNames[pi]}: ${fmt(v)}` +
            (unit || ''));
      svg.appendChild(rect);
      y0 -= hh;
    });
    const t = svgEl('text', {
      x: cx, y: h - pad.b + 16, 'text-anchor': 'middle', class: 'tick',
    });
    t.textContent = r.label;
    svg.appendChild(t);
  });
}

function harmonicMean(values) {
  const xs = values.filter(v => typeof v === 'number' && v > 0);
  if (!xs.length) return null;
  return xs.length / xs.reduce((a, v) => a + 1 / v, 0);
}

function panel(id) { return document.getElementById(id); }
function setEmpty(id, text) {
  const p = document.createElement('p');
  p.className = 'empty';
  p.textContent = text;
  panel(id).appendChild(p);
}

// -- stat tiles --------------------------------------------------------
(function tiles() {
  const latest = DATA.runs[DATA.runs.length - 1];
  const items = [
    ['ledger entries', DATA.runs.length],
    ['latest cells', latest ? latest.cells.length : null],
    ['latest ILP (hmean)', latest ? harmonicMean(
      latest.cells.map(c => c.parallelism)) : null],
    ['flaky cells (ever)', DATA.flaky.length],
  ];
  const box = panel('tiles');
  for (const [label, value] of items) {
    const tile = document.createElement('div');
    tile.className = 'tile';
    const v = document.createElement('div');
    v.className = 'value';
    v.textContent = fmt(typeof value === 'number' ? value : NaN);
    const l = document.createElement('div');
    l.className = 'label';
    l.textContent = label;
    tile.appendChild(v);
    tile.appendChild(l);
    box.appendChild(tile);
  }
})();

// -- ILP per machine (latest report run) ------------------------------
(function ilp() {
  const latest = DATA.runs[DATA.runs.length - 1];
  if (!latest || !latest.cells.length) {
    setEmpty('ilp-panel', 'No report entries yet — ingest a JSONL run ' +
             'report with `repro ingest`.');
    return;
  }
  const byMachine = new Map();
  latest.cells.forEach(c => {
    if (c.status === 'failed') return;
    if (!byMachine.has(c.machine)) byMachine.set(c.machine, []);
    byMachine.get(c.machine).push(c.parallelism);
  });
  const items = [...byMachine.entries()].map(([label, vals]) => (
    {label, value: harmonicMean(vals)}));
  barChart(panel('ilp-panel'), items, '');
})();

// -- stall-cause stacked breakdown ------------------------------------
(function stalls() {
  const causes = ['control', 'raw_dep', 'memory_order',
                  'unit_conflict', 'issue_width'];
  const latest = [...DATA.runs].reverse().find(
    r => r.cells.some(c => c.stalls));
  if (!latest) {
    setEmpty('stall-panel', 'No run with stall attribution yet — ' +
             'sweep with --profile / observe=True.');
    return;
  }
  const byMachine = new Map();
  latest.cells.forEach(c => {
    if (!c.stalls) return;
    if (!byMachine.has(c.machine)) {
      byMachine.set(c.machine, causes.map(() => 0));
    }
    const acc = byMachine.get(c.machine);
    causes.forEach((cause, i) => {
      acc[i] += c.stalls[cause] || 0;
    });
  });
  const rows = [...byMachine.entries()].map(([label, parts]) => (
    {label, parts}));
  stackedBars(panel('stall-panel'), rows, causes, ' cycles');
})();

// -- cache / memo hit-rate trends -------------------------------------
(function rates() {
  const runs = DATA.runs.filter(r => r.counters &&
    (r.counters['cache.gets'] || r.counters['replay.memo_hits'] ||
     (r.engine && r.engine.cache_hits != null)));
  if (!runs.length) {
    setEmpty('rates-panel', 'No cache/memo counters in the ledger yet.');
    return;
  }
  const xLabels = runs.map(r => '#' + r.id);
  const cacheRate = r => {
    const c = r.counters || {};
    if (c['cache.gets']) {
      return 100 * (c['cache.hits'] || 0) / c['cache.gets'];
    }
    const e = r.engine;
    if (e && (e.cache_hits || e.cache_misses)) {
      return 100 * e.cache_hits / (e.cache_hits + e.cache_misses);
    }
    return null;
  };
  const memoRate = r => {
    const e = r.engine || {};
    const total = (e.memo_hits || 0) + (e.memo_misses || 0);
    return total ? 100 * e.memo_hits / total : null;
  };
  lineChart(panel('rates-panel'), [
    {name: 'trace-cache hit %', points: runs.map(r => ({y: cacheRate(r)}))},
    {name: 'replay-memo hit %', points: runs.map(r => ({y: memoRate(r)}))},
  ], xLabels, '%');
})();

// -- flaky-cell table --------------------------------------------------
(function flaky() {
  const body = panel('flaky-body');
  if (!DATA.flaky.length) {
    panel('flaky-table').style.display = 'none';
    setEmpty('flaky-panel', 'No cell has ever needed the resilience ' +
             'ladder — every ingested run was clean.');
    return;
  }
  DATA.flaky.forEach(cell => {
    const tr = document.createElement('tr');
    const history = (cell.history || []).map(h =>
      `#${h.attempt} ${h.kind}@${h.where}`).join(', ');
    const cols = [
      ['#' + cell.run_ref + ' ' + (cell.run_label || ''), ''],
      [cell.benchmark + '@' + cell.machine, ''],
      [cell.status, 'status-' + cell.status],
      [String(cell.attempts), ''],
      [history || (cell.error ? cell.error.kind : '–'), ''],
    ];
    cols.forEach(([text, cls]) => {
      const td = document.createElement('td');
      td.textContent = text;
      if (cls) td.className = cls;
      tr.appendChild(td);
    });
    body.appendChild(tr);
  });
})();

// -- resource telemetry ------------------------------------------------
(function resources() {
  const rows = [];
  DATA.runs.forEach(r => (r.resources || []).forEach(res => {
    rows.push({run: r.id, ...res});
  }));
  const body = panel('resource-body');
  if (!rows.length) {
    panel('resource-table').style.display = 'none';
    setEmpty('resource-panel', 'No resource telemetry ingested — run ' +
             'with --sample-resources to record per-worker RSS/CPU.');
    return;
  }
  rows.forEach(res => {
    const tr = document.createElement('tr');
    [['#' + res.run], [res.track],
     [fmt(res.rss_peak_mb) + ' MiB'],
     [fmt(res.cpu_seconds) + ' s'],
     [String(res.samples)]].forEach(([text]) => {
      const td = document.createElement('td');
      td.textContent = text;
      tr.appendChild(td);
    });
    body.appendChild(tr);
  });
})();
"""

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>%(title)s</title>
<style>%(css)s</style>
</head>
<body data-palette="%(palette)s">
<h1>%(title)s</h1>
<p class="subtitle">%(subtitle)s</p>
<div class="tiles" id="tiles"></div>
<div class="panel" id="ilp-panel">
  <h2>ILP per machine</h2>
  <p class="note">harmonic-mean parallelism across benchmarks,
  latest report run</p>
</div>
<div class="panel" id="stall-panel">
  <h2>Stall attribution</h2>
  <p class="note">minor cycles lost per cause, summed over benchmarks,
  latest observed run</p>
</div>
<div class="panel" id="rates-panel">
  <h2>Cache &amp; replay-memo hit rates</h2>
  <p class="note">per ingested report run</p>
</div>
<div class="panel" id="flaky-panel">
  <h2>Flaky cells</h2>
  <p class="note">every cell that was ever retried, degraded, or failed
  — with its attempt history</p>
  <table id="flaky-table">
    <thead><tr><th>run</th><th>cell</th><th>status</th>
    <th>attempts</th><th>history</th></tr></thead>
    <tbody id="flaky-body"></tbody>
  </table>
</div>
<div class="panel" id="resource-panel">
  <h2>Resource telemetry</h2>
  <p class="note">per-track peak RSS and CPU time
  (--sample-resources runs)</p>
  <table id="resource-table">
    <thead><tr><th>run</th><th>track</th><th>peak RSS</th>
    <th>CPU time</th><th>samples</th></tr></thead>
    <tbody id="resource-body"></tbody>
  </table>
</div>
<div id="tooltip"></div>
<script id="ledger-data" type="application/json">%(data)s</script>
<script>%(js)s</script>
</body>
</html>
"""


def _slot_css(indent: str, dark: bool) -> str:
    lines = []
    for i, (light, dark_hex) in enumerate(_PALETTE, start=1):
        value = dark_hex if dark else light
        lines.append(f"{indent}--series-{i}: {value};")
    return "\n".join(lines)


def render_dashboard(data: dict, title: str = "repro run history") -> str:
    """Render one ledger export as a complete standalone HTML page."""
    runs = data.get("runs", [])
    subtitle = (
        f"{len(runs)} ledger entr{'y' if len(runs) == 1 else 'ies'}"
        f" · ledger {data.get('path', '?')}"
    )
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"),
                      default=str)
    # A literal "</script>" inside the JSON would end the data block
    # early; escaping the slash is invisible to JSON.parse.
    blob = blob.replace("</", "<\\/")
    css = _CSS % {
        "light_slots": _slot_css("  ", dark=False),
        "dark_slots": _slot_css("    ", dark=True),
    }
    palette = ",".join(light for light, _ in _PALETTE)
    return _PAGE % {
        "title": title,
        "subtitle": subtitle,
        "css": css,
        "palette": palette,
        "data": blob,
        "js": _JS,
    }


def write_dashboard(path: str, data: dict,
                    title: str = "repro run history") -> None:
    """Render and write the dashboard HTML to ``path``."""
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(data, title=title))
